"""The column-wise writers against the per-cell rules they replace.

report.json must equal json.dumps(doc, indent=2, sort_keys=True) of the
row-dict document, and each CSV must equal what the per-cell rule below
writes: 17 significant digits for floats, true/false for booleans, str()
for the rest, quoted when it holds a comma, a quote or a line break.
"""

import json
import math

import numpy as np

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


def reference_json(report: RunReport) -> str:
    doc = {"mode": report.mode, "config": report.config,
           "grid": report.grid_info, "hermiticity": report.hermiticity,
           "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                      for c in report.checks],
           "notes": report.notes, "passed": report.passed,
           "spectrum": report.spectrum_rows, "balance": report.balance_rows,
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
