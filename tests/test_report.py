"""The column-wise writers against the per-cell rules they replace.

report.json must equal json.dumps(doc, indent=2, sort_keys=True) of the
row-dict document, and each CSV must equal what the per-cell rule below
writes: repr() for floats (the shortest spelling that parses back to the
same double, as report.json spells every finite float), true/false for
booleans, str() for the rest, quoted when it holds a comma, a quote or a
line break.  The balance rows of the reference document are read one pair
at a time from the BalanceTable's columns, and the spectrum table's
columns are checked bit for bit against a per-state computation.
"""

import csv
import json
import math

import numpy as np
import pytest

import dirac1d.report as pipeline
from dirac1d import (Dirac1DError, assemble_hamiltonian, config_from_raw,
                     execute, normalize_result, orthogonality_balance,
                     sample_mass, solve_spectrum)
from dirac1d.diagnostics import BalanceTable
from dirac1d.report import CheckOutcome, RunReport, write_csv, write_outputs
from helpers import reference_spectrum_columns

ODD_ROW = {
    "nan": math.nan, "inf": math.inf, "minus_inf": -math.inf,
    "minus_zero": -0.0, "subnormal": 5e-324, "flag": True, "count": 7,
    "text": 'say "hi", then stop: ü', "n64": np.float64(0.1),
}


def columns(rows: list[dict]) -> dict[str, list]:
    """Row dicts as the {header: column} table the writers take."""
    return {key: [row[key] for row in rows] for key in rows[0]}


def rows_of(table: dict) -> list[dict]:
    """A {header: column} table as row dicts of plain Python values."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c)
            for c in table.values()]
    return [dict(zip(table, row)) for row in zip(*cols)]


def reference_csv(rows: list[dict], header=None) -> str:
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        text = str(v)
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    cols = list(rows[0]) if header is None else list(header)
    lines = [",".join(cols)]
    lines.extend(",".join(cell(row[c]) for c in cols) for row in rows)
    return "\n".join(lines) + "\n"


def reference_gram_rows(g: np.ndarray) -> list[dict]:
    return [{"k_prime": i, "k": j, "re": g[i, j].real, "im": g[i, j].imag}
            for i in range(g.shape[0]) for j in range(g.shape[1])]


def reference_balance_rows(table) -> list[dict]:
    """One row per pair, read from the table's columns one entry at a time
    as Python scalars."""
    if table is None:
        return []
    rows = []
    for i in range(len(table)):
        te, tb, tp = (complex(t[i]) for t in (table.term_energy, table.term_boundary,
                                              table.term_potential))
        rows.append({"k": int(table.k[i]), "k_prime": int(table.k_prime[i]),
                     "term_energy_re": te.real, "term_energy_im": te.imag,
                     "term_boundary_re": tb.real, "term_boundary_im": tb.imag,
                     "term_potential_re": tp.real, "term_potential_im": tp.imag,
                     "identity_residual": float(table.identity_residual[i]),
                     "identity_tol": table.identity_tol,
                     "identity_ok": bool(table.identity_ok[i]),
                     "orthogonality_gap": float(table.orthogonality_gap[i]),
                     "orthogonality_restored": bool(table.orthogonality_restored[i])})
    return rows


def reference_json(report: RunReport) -> str:
    doc = {"mode": report.mode, "config": report.config,
           "grid": report.grid_info, "hermiticity": report.hermiticity,
           "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                      for c in report.checks],
           "notes": report.notes, "passed": report.passed,
           "spectrum": rows_of(report.spectrum),
           "balance": reference_balance_rows(report.balance),
           "pt": rows_of(report.pt)}
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
    report = sample_report(spectrum=columns([ODD_ROW]), gram=g)
    written = write_outputs(report, tmp_path, "both")
    assert [p.name for p in written] == ["spectrum.csv", "gram.csv", "report.json"]
    assert (tmp_path / "spectrum.csv").read_text() == reference_csv([ODD_ROW])
    text = (tmp_path / "report.json").read_text()
    assert text == reference_json(report)
    assert '"nan": NaN' in text and '"minus_inf": -Infinity' in text
    gram_csv = (tmp_path / "gram.csv").read_text()
    assert gram_csv == reference_csv(reference_gram_rows(g))
    # both files write the shortest round-trip repr
    assert "6.938999783025634e-18" in gram_csv
    assert "6.938999783025634e-18" in text


def test_empty_table_is_an_empty_list_and_no_csv(tmp_path):
    report = sample_report(spectrum=columns([ODD_ROW]), gram=np.zeros((0, 0)))
    assert [p.name for p in write_outputs(report, tmp_path, "both")] == [
        "spectrum.csv", "report.json"]
    text = (tmp_path / "report.json").read_text()
    assert text == reference_json(report)
    doc = json.loads(text)
    assert doc["balance"] == [] and doc["gram"] == [] and doc["pt"] == []


def test_unknown_formats_is_refused_before_out_dir_is_touched(tmp_path):
    report = sample_report(spectrum=columns([ODD_ROW]), gram=np.eye(2))
    earlier = sorted(p.name for p in write_outputs(report, tmp_path, "both"))
    with pytest.raises(Dirac1DError, match="'xml'"):
        write_outputs(report, tmp_path, "xml")
    assert sorted(p.name for p in tmp_path.iterdir()) == earlier
    with pytest.raises(Dirac1DError, match="'xml'"):
        write_outputs(report, tmp_path / "new", "xml")
    assert not (tmp_path / "new").exists()


def test_a_report_json_that_cannot_be_written_leaves_the_earlier_one(tmp_path):
    report = sample_report(spectrum=columns([ODD_ROW]), gram=np.eye(2))
    write_outputs(report, tmp_path, "json")
    earlier = (tmp_path / "report.json").read_text()
    # "notes" sorts after the tables: the whole text is built before the
    # file is opened
    report.notes.append(object())
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_outputs(report, tmp_path, "json")
    assert (tmp_path / "report.json").read_text() == earlier


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


# NaNs with their sign bit set or a payload: every NaN is written nan / NaN
NEGATIVE_NAN = float(np.copysign(math.nan, -1.0))
PAYLOAD_NAN = float(np.array([0x7FF80000DEADBEEF], dtype=np.uint64)
                    .view(np.float64)[0])

SWEEP_HEADER = ("value", "passed", "min_abs_im_e", "n_complex_pairs",
                "identity_residual", "error")
# tables at the edges of the row assembler: one column, one row, text cells
# that need CSV quoting over several rows (with repeated, negative, large
# and unsigned ints), the header-only summary of an empty sweep, and
# constant columns at every position
TABLE_SHAPES = {
    "one_column": {"x": [0.1, -0.0, math.nan, 0.1, 7.0]},
    "one_row": columns([ODD_ROW]),
    "quoted_text": {
        "name": ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "plain", ""],
        "k": np.array([3, -1, 3, 2**62, 0, -1]),
        "u": np.array([5, 0, 5, 2**64 - 1, 1, 0], dtype=np.uint64),
        "ok": np.array([True, False, True, True, False, False]),
        "x": np.array([1.5, -0.0, 1.5, math.inf, 1e-300, 2.0])},
    "empty_sweep_summary": {key: [] for key in SWEEP_HEADER},
    # x and -x share one formatted magnitude; a column of negatives only
    "signs": {
        "mirror": np.array([0.1, -0.1, 2.5e-17, -2.5e-17, -0.1, math.inf,
                            -math.inf, 0.0, -0.0, 5e-324, -5e-324, 7.0]),
        "negative": np.array([-0.1, -1e-300, -5e-324, -math.inf, -0.1,
                              -0.0, -7.0, -1.7976931348623157e308, -0.5,
                              -1e16, -2.5e-17, -0.1])},
    # a column whose cells all have one spelling is folded into the row
    # text; the names sort in column order, so a constant column is first,
    # in the middle or last in report.json as in the CSV
    "constant_first": {
        "a_minus_zero": np.array([-0.0, -0.0]),
        "b_nan": np.array([NEGATIVE_NAN, math.nan]),
        "c_count": np.array([7, 7]),
        "d_x": np.array([0.1, -2.0]), "e_k": np.array([1, 2])},
    "constant_middle": {
        "a_x": np.array([0.1, 0.2]), "b_inf": np.array([math.inf, math.inf]),
        "c_minus_inf": np.array([-math.inf, -math.inf]),
        "d_flag": np.array([True, True]), "e_y": np.array([-1.0, 3.0])},
    "constant_last": {
        "a_x": np.array([1e-300, -7.0]), "b_ok": np.array([True, False]),
        "c_subnormal": np.array([5e-324, 5e-324]),
        "d_flag": np.array([False, False]),
        "e_nan": np.array([NEGATIVE_NAN, NEGATIVE_NAN])},
    "every_column_constant": {
        "a_minus_zero": np.array([-0.0, -0.0]),
        "b_nan": np.array([NEGATIVE_NAN, NEGATIVE_NAN]),
        "c_inf": np.array([math.inf, math.inf]),
        "d_minus_inf": np.array([-math.inf, -math.inf]),
        "e_subnormal": np.array([5e-324, 5e-324]),
        "f_count": np.array([-3, -3]),
        "g_flag": np.array([True, True])},
    "every_column_constant_one_row": {
        "a_minus_zero": [-0.0], "b_nan": [NEGATIVE_NAN], "c_inf": [math.inf],
        "d_subnormal": [-5e-324], "e_count": np.array([2**63 - 1]),
        "f_flag": [False]},
    # text is never folded: one varying column between constant ones
    "text_between_constants_one_row": {
        "a_x": [0.5], "b_name": ["a,b"], "c_k": [3]},
    # cells that differ only in their sign are two spellings
    "sign_only": {
        "a_zero": np.array([0.0, -0.0]), "b_x": np.array([0.1, -0.1]),
        "c_inf": np.array([-math.inf, math.inf]),
        "d_subnormal": np.array([-5e-324, 5e-324])},
}


@pytest.mark.parametrize("shape", TABLE_SHAPES)
def test_table_shapes_match_the_per_row_references(tmp_path, shape):
    def text(path):  # a bare \r is data, not a line end
        with open(path, newline="") as fh:
            return fh.read()

    table = TABLE_SHAPES[shape]
    rows = rows_of(table)
    write_csv(tmp_path / "table.csv", table)
    assert text(tmp_path / "table.csv") == reference_csv(rows, table)
    report = sample_report(spectrum=table)
    written = write_outputs(report, tmp_path / "out", "both")
    assert (tmp_path / "out" / "spectrum.csv" in written) == bool(rows)
    if rows:
        assert text(tmp_path / "out" / "spectrum.csv") == reference_csv(rows)
    assert (tmp_path / "out" / "report.json").read_text() == reference_json(report)


# every float whose bits a value-keyed dedupe would merge or split wrongly:
# 0.0 == -0.0 but the two are written apart, nan != nan, and a NaN's sign
# bit and payload must not reach its cell
REPEATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, np.float64(0.1),
           -0.0, 0.0, math.inf, math.nan, 5e-324, -math.inf, 0.1, -0.0,
           np.float64(-0.0), 0.0, NEGATIVE_NAN, PAYLOAD_NAN, -5e-324,
           NEGATIVE_NAN]


def test_repeated_odd_floats_are_written_per_cell(tmp_path):
    rows = [{"x": v, "index": i} for i, v in enumerate(REPEATS)]
    report = sample_report(spectrum=columns(rows))
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


def test_every_float_cell_parses_back_to_its_bits_and_reads_alike_in_both_files(
        tmp_path):
    rng = np.random.default_rng(20261020)
    # raw bit patterns reach every exponent, subnormals included; the
    # writers spell NaN without its sign or payload, so a NaN's cell parses
    # back to the canonical NaN
    bits = rng.integers(0, 2**64, size=2000, dtype=np.uint64, endpoint=False)
    drawn = bits.view(np.float64)
    drawn = drawn[np.isfinite(drawn)]
    special = [-0.0, 0.0, 5e-324, -5e-324, np.finfo(float).max,
               -np.finfo(float).max, math.nan, math.inf, -math.inf, 1e-12, 0.1,
               NEGATIVE_NAN, PAYLOAD_NAN, -0.1]
    n = len(special) * 20
    table = {"index": np.arange(n), "drawn": drawn[:n],
             "normal": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
             "special": np.array(special * 20)}
    write_outputs(sample_report(spectrum=table), tmp_path, "both")

    with open(tmp_path / "spectrum.csv", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    # the literal spellings, not the parsed values
    json_rows = json.loads((tmp_path / "report.json").read_text(),
                           parse_float=str, parse_constant=str)["spectrum"]
    for key in ("drawn", "normal", "special"):
        values = table[key].tolist()
        csv_cells = [row[key] for row in csv_rows]
        json_cells = [row[key] for row in json_rows]
        assert csv_cells == list(map(repr, values)), key
        assert json_cells == list(map(json.dumps, values)), key
        want = np.where(np.isnan(table[key]), math.nan, table[key]).view(np.uint64)
        for cells in (csv_cells, json_cells):
            got = np.array([float(c) for c in cells]).view(np.uint64)
            assert np.array_equal(got, want), key
        finite = np.isfinite(table[key])
        assert [c for c, f in zip(csv_cells, finite) if f] == [
            c for c, f in zip(json_cells, finite) if f], key
    assert {row["special"] for row in csv_rows} >= {"nan", "inf", "-inf",
                                                     "-0.0", "1e-12"}
    assert {row["special"] for row in json_rows} >= {"NaN", "Infinity",
                                                      "-Infinity"}


PT_RAW = {"grid": {"x_min": "-6.0", "x_max": "6.0", "n_points": "100"},
          "mass": {"family": "quadratic_even", "m0": "1.0", "alpha": "0.1"},
          "potential": {"v_t": "pt_from_mass"},
          "diagnostics": {"balance_lowest": "8"}}


def test_an_unknown_mode_is_refused():
    with pytest.raises(Dirac1DError, match="^unknown mode 'solve'$"):
        execute(config_from_raw(PT_RAW), "solve")


def test_diagnose_artifacts_match_the_per_pair_reference(tmp_path):
    report = execute(config_from_raw(PT_RAW), "diagnose")
    assert len(report.balance) == 28
    write_outputs(report, tmp_path, "both")
    rows = reference_balance_rows(report.balance)
    assert (tmp_path / "balance.csv").read_text() == reference_csv(rows)
    assert (tmp_path / "report.json").read_text() == reference_json(report)
    for table, name in ((report.spectrum, "spectrum.csv"),
                        (report.pt, "pt_check.csv")):
        assert (tmp_path / name).read_text() == reference_csv(rows_of(table))


def test_a_windowed_diagnose_balances_the_normalized_states_at_the_nearest_nodes(
        tmp_path):
    cfg = config_from_raw({**PT_RAW, "diagnostics": {"balance_lowest": "4",
                                                     "window": "-2:2"}})
    write_outputs(execute(cfg, "diagnose"), tmp_path, "csv")

    grid = cfg.build_grid()
    profile = cfg.build_mass_profile()
    op = assemble_hamiltonian(grid, cfg.build_potential(grid, profile),
                              sample_mass(profile, grid))
    result = normalize_result(solve_spectrum(op))
    window = (grid.nearest_node(-2.0), grid.nearest_node(2.0))
    assert 0 < window[0] < window[1] < grid.n_points - 1
    table, failures = orthogonality_balance(
        result, [(k, kp) for k in range(4) for kp in range(k)], window=window)
    assert failures == [] and len(table) == 6 and table.window == window
    assert np.all(table.term_boundary != 0.0)  # an interior window has a flux
    assert (tmp_path / "balance.csv").read_text() == reference_csv(
        reference_balance_rows(table))


def _raw(x_max, n_points, mass, potential, boundary="dirichlet", max_pairs=12):
    return {"grid": {"x_min": str(-x_max), "x_max": str(x_max),
                     "n_points": str(n_points), "boundary": boundary},
            "mass": mass, "potential": potential,
            "solver": {"max_pairs": str(max_pairs)},
            "diagnostics": {"balance_lowest": "2"}}


SPECTRUM_CASES = {
    # many_states_diagnose at seed 0, 100 of 396 levels
    "many_states": _raw(12.0, 200, {"family": "constant"},
                        {"v_s": "abs:0.5204197668528069"}, max_pairs=100),
    "readme_pt": _raw(10.0, 200, {"family": "quadratic_even", "alpha": "0.1"},
                      {"v_t": "pt_from_mass"}),
    "complex_levels": _raw(6.0, 121, {"family": "constant"},
                           {"v_s": "abs:0.5", "v_t": "linear:0.6j"},
                           max_pairs=20),
    "periodic": _raw(5.0, 96, {"family": "constant"},
                     {"v_t": "linear:0.3j", "v_sp": "constant:0.1",
                      "v_s": "abs:0.4", "v_p": "quadratic:0.05"},
                     boundary="periodic"),
}


@pytest.mark.parametrize("case", SPECTRUM_CASES)
def test_spectrum_columns_match_the_per_state_reference_bit_for_bit(
        case, monkeypatch):
    seen = {}
    normalize_result = pipeline.normalize_result

    def keep(result):
        seen["result"] = normalize_result(result)
        return seen["result"]

    monkeypatch.setattr(pipeline, "normalize_result", keep)
    spectrum = execute(config_from_raw(SPECTRUM_CASES[case]), "diagnose").spectrum
    expected = reference_spectrum_columns(seen["result"])
    assert list(spectrum) == list(expected)
    for key, want in expected.items():
        got = np.asarray(spectrum[key])
        if want.dtype.kind == "f":
            # bits, not values: 0.0 == -0.0, and one ulp is a failure
            assert got.dtype == want.dtype, key
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), key
        else:
            assert got.tolist() == want.tolist(), key
