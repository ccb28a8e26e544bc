"""The column-wise writers against the per-cell rules they replace.

report.json must equal json.dumps(doc, indent=2, sort_keys=True) of the
row-dict document, and each CSV must equal what the per-cell rule below
writes: 17 significant digits for floats, true/false for booleans, str()
for the rest, quoted when it holds a comma, a quote or a line break.  The
balance rows of the reference document are read one pair at a time from
the BalanceTable's per-pair view.
"""

import json
import math

import numpy as np

from dirac1d import config_from_raw, execute
from dirac1d.diagnostics import BalanceTable
from dirac1d.report import CheckOutcome, RunReport, write_csv, write_outputs

ODD_ROW = {
    "nan": math.nan, "inf": math.inf, "minus_inf": -math.inf,
    "minus_zero": -0.0, "subnormal": 5e-324, "flag": True, "count": 7,
    "text": 'say "hi", then stop: ü', "n64": np.float64(0.1),
    "pair": [1, {"b": 2.5, "a": None}],
}

MIXED_ROWS = [
    {"mixed": 2 ** 64 + 1, "floats": 0.5},
    {"mixed": 0.25, "floats": np.float64(1.0) / 3.0},
]


def reference_csv(rows: list[dict]) -> str:
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".17g")
        text = str(v)
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    cols = list(rows[0])
    lines = [",".join(cols)]
    lines.extend(",".join(cell(row[c]) for c in cols) for row in rows)
    return "\n".join(lines) + "\n"


def reference_gram_rows(g: np.ndarray) -> list[dict]:
    return [{"k_prime": i, "k": j, "re": g[i, j].real, "im": g[i, j].imag}
            for i in range(g.shape[0]) for j in range(g.shape[1])]


def reference_balance_rows(table) -> list[dict]:
    """One row per pair, read from the table's per-pair BalanceReport view."""
    if table is None:
        return []
    return [{"k": rep.k, "k_prime": rep.k_prime,
             "term_energy_re": rep.term_energy.real,
             "term_energy_im": rep.term_energy.imag,
             "term_boundary_re": rep.term_boundary.real,
             "term_boundary_im": rep.term_boundary.imag,
             "term_potential_re": rep.term_potential.real,
             "term_potential_im": rep.term_potential.imag,
             "identity_residual": rep.identity_residual,
             "identity_tol": rep.identity_tol, "identity_ok": rep.identity_ok,
             "orthogonality_gap": rep.orthogonality_gap,
             "orthogonality_restored": rep.orthogonality_restored}
            for rep in table]


def reference_json(report: RunReport) -> str:
    doc = {"mode": report.mode, "config": report.config,
           "grid": report.grid_info, "hermiticity": report.hermiticity,
           "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                      for c in report.checks],
           "notes": report.notes, "passed": report.passed,
           "spectrum": report.spectrum_rows,
           "balance": reference_balance_rows(report.balance),
           "pt": report.pt_rows}
    if report.gram is not None:
        doc["gram"] = reference_gram_rows(report.gram)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def sample_report(**tables) -> RunReport:
    return RunReport(
        mode="diagnose",
        config={"grid": {"n_points": 3, "x_max": 1.5},
                "diagnostics": {"window": None, "balance_pairs": [(1, 0)],
                                "identity_tol": "auto"}},
        grid_info={"h": 0.1, "boundary": "dirichlet"},
        hermiticity={"operator": 0.0, "gamma0_potential": 1e-300},
        checks=[CheckOutcome("solver_convergence", True, 'max "1e-9", ok')],
        notes=["one note"], **tables)


def test_one_row_of_odd_values_matches_the_per_cell_rules(tmp_path):
    g = np.array([[1.0 + 0.0j, 6.938999783025634e-18 - 2e-17j],
                  [-0.0 + 1e-300j, 0.5 + 0.25j]])
    report = sample_report(spectrum_rows=[ODD_ROW], gram=g)
    written = write_outputs(report, tmp_path, "both")
    assert [p.name for p in written] == ["spectrum.csv", "gram.csv", "report.json"]
    assert (tmp_path / "spectrum.csv").read_text() == reference_csv([ODD_ROW])
    text = (tmp_path / "report.json").read_text()
    assert text == reference_json(report)
    assert '"nan": NaN' in text and '"minus_inf": -Infinity' in text
    gram_csv = (tmp_path / "gram.csv").read_text()
    assert gram_csv == reference_csv(reference_gram_rows(g))
    # the CSV writes 17 digits, report.json the shortest round-trip repr
    assert "6.9389997830256336e-18" in gram_csv
    assert "6.938999783025634e-18" in text


def test_empty_table_is_an_empty_list_and_no_csv(tmp_path):
    report = sample_report(spectrum_rows=[ODD_ROW], gram=np.zeros((0, 0)))
    assert [p.name for p in write_outputs(report, tmp_path, "both")] == [
        "spectrum.csv", "report.json"]
    text = (tmp_path / "report.json").read_text()
    assert text == reference_json(report)
    doc = json.loads(text)
    assert doc["balance"] == [] and doc["gram"] == [] and doc["pt"] == []


def test_mixed_int_and_float_column_takes_the_per_cell_path(tmp_path):
    report = sample_report(pt_rows=MIXED_ROWS)
    write_outputs(report, tmp_path, "both")
    csv_text = (tmp_path / "pt_check.csv").read_text()
    assert csv_text == reference_csv(MIXED_ROWS)
    # "%.17g" would write the int in exponent form
    assert csv_text.splitlines()[1].startswith("18446744073709551617,")
    assert (tmp_path / "report.json").read_text() == reference_json(report)


def test_write_csv_matches_the_per_cell_rule_on_a_sweep_summary(tmp_path):
    rows = [{"value": '"x', "passed": False, "min_abs_im_e": math.nan,
             "n_complex_pairs": 0, "identity_residual": math.nan,
             "error": "mass.family: invalid value '\"x'; valid: a, b"},
            {"value": "0.1", "passed": True, "min_abs_im_e": np.float64(0.0),
             "n_complex_pairs": 2, "identity_residual": np.float64(8e-15),
             "error": ""}]
    path = tmp_path / "summary.csv"
    write_csv(path, {key: [row[key] for row in rows] for key in rows[0]})
    assert path.read_text() == reference_csv(rows)
    write_csv(path, {key: [] for key in rows[0]})
    assert path.read_text() == ",".join(rows[0]) + "\n"


# every float whose bits a value-keyed dedupe would merge or split wrongly:
# 0.0 == -0.0 but the two are written apart, and nan != nan
REPEATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, np.float64(0.1),
           -0.0, 0.0, math.inf, math.nan, 5e-324, -math.inf, 0.1, -0.0,
           np.float64(-0.0), 0.0]


def test_repeated_odd_floats_are_written_per_cell(tmp_path):
    rows = [{"x": v, "index": i} for i, v in enumerate(REPEATS)]
    report = sample_report(spectrum_rows=rows)
    write_outputs(report, tmp_path, "both")
    assert (tmp_path / "spectrum.csv").read_text() == reference_csv(rows)
    assert (tmp_path / "report.json").read_text() == reference_json(report)


def test_balance_table_columns_write_what_the_per_pair_rows_write(tmp_path):
    x = np.array(REPEATS, dtype=float)
    n = len(x)
    term_energy = x.astype(complex)
    term_energy.imag = x[::-1]  # x + 1j * x would turn inf into nan
    table = BalanceTable(
        k=np.arange(n), k_prime=np.arange(n)[::-1],
        term_energy=term_energy, term_boundary=np.zeros(n, dtype=complex),
        term_potential=-x + 0j, identity_residual=x,
        orthogonality_gap=x[::-1], identity_ok=np.isfinite(x),
        orthogonality_restored=x == 0.0, identity_tol=2.5e-12, window=None)
    report = sample_report(balance=table)
    write_outputs(report, tmp_path, "both")
    rows = reference_balance_rows(table)
    assert (tmp_path / "balance.csv").read_text() == reference_csv(rows)
    text = (tmp_path / "report.json").read_text()
    assert text == reference_json(report)
    assert '"identity_residual": -0.0' in text
    assert '"identity_residual": NaN' in text


PT_RAW = {"grid": {"x_min": "-6.0", "x_max": "6.0", "n_points": "100"},
          "mass": {"family": "quadratic_even", "m0": "1.0", "alpha": "0.1"},
          "potential": {"v_t": "pt_from_mass"},
          "diagnostics": {"balance_lowest": "8"}}


def test_diagnose_artifacts_match_the_per_pair_reference(tmp_path):
    report = execute(config_from_raw(PT_RAW), "diagnose")
    assert len(report.balance) == 28
    write_outputs(report, tmp_path, "both")
    rows = reference_balance_rows(report.balance)
    assert (tmp_path / "balance.csv").read_text() == reference_csv(rows)
    assert (tmp_path / "report.json").read_text() == reference_json(report)
