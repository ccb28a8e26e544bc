"""End-to-end CLI runs: exit codes, artifacts, determinism, sweeps."""

import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import dirac1d
from dirac1d.cli import main
from helpers import dispersion_multiset, lowest_by_abs

FREE_INI = textwrap.dedent("""\
    [grid]
    x_min = -3.141592653589793
    x_max = 3.141592653589793
    n_points = 64
    boundary = periodic

    [mass]
    family = constant
    m0 = 1.0

    [solver]
    wilson_r = 1.0
    max_pairs = 14
    """)

PT_INI = textwrap.dedent("""\
    [grid]
    x_min = -6.0
    x_max = 6.0
    n_points = 100

    [mass]
    family = quadratic_even
    m0 = 1.0
    alpha = 0.1

    [potential]
    v_t = pt_from_mass
    """)


def write_ini(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_spectrum_matches_lattice_dispersion(tmp_path, capsys):
    ini = write_ini(tmp_path, FREE_INI)
    out = tmp_path / "out"
    assert main(["spectrum", str(ini), "--out", str(out)]) == 0
    rows = read_rows(out / "spectrum.csv")
    assert len(rows) == 14
    assert all(r["classification"] == "real" for r in rows)
    energies = np.array([float(r["energy_re"]) for r in rows])
    assert max(abs(float(r["energy_im"])) for r in rows) <= 1e-10
    h = 2.0 * np.pi / 64.0
    oracle = lowest_by_abs(dispersion_multiset(64, h, 1.0, 1.0), 14)
    assert np.allclose(np.sort(energies), np.sort(oracle), atol=1e-8)
    text = capsys.readouterr().out
    assert "check solver_convergence: PASS" in text
    assert "check conjugate_pairing: PASS" in text


def test_repeat_runs_are_byte_identical(tmp_path):
    cases = (
        ("free", FREE_INI, ["spectrum"], ("spectrum.csv", "pt_check.csv")),
        ("pt", PT_INI, ["diagnose", "--format", "both"],
         ("spectrum.csv", "gram.csv", "balance.csv", "pt_check.csv", "report.json")),
    )
    for case, text, (mode, *flags), names in cases:
        ini = write_ini(tmp_path, text, name=f"{case}.ini")
        outs = []
        for d in ("a", "b"):
            out = tmp_path / case / d
            assert main([mode, str(ini), "--out", str(out), *flags]) == 0
            outs.append(out)
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_diagnose_balanced_but_not_conserving(tmp_path, capsys):
    ini = write_ini(tmp_path, PT_INI)
    out = tmp_path / "out"
    code = main(["diagnose", str(ini), "--out", str(out), "--strict-pt"])
    text = capsys.readouterr().out
    assert code == 0
    assert "check pt_symmetry: PASS" in text
    assert "check balance_identity: PASS" in text
    # imaginary vector channel: conservation is reported, never gated
    assert "anti-Hermitian part" in text
    assert "check continuity_conserved" not in text
    for name in ("spectrum.csv", "gram.csv", "balance.csv", "pt_check.csv"):
        assert (out / name).exists()
    balance = read_rows(out / "balance.csv")
    assert len(balance) == 15  # all pairs among the lowest 6
    assert all(r["identity_ok"] == "true" for r in balance)
    spectrum = read_rows(out / "spectrum.csv")
    assert "tail_amplitude" in spectrum[0] and "continuity_max" in spectrum[0]


def _same_value(cell: str, value) -> bool:
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, int):
        return int(cell) == value
    if isinstance(value, float):
        return float(cell) == value
    return cell == value


def test_json_tables_hold_the_csv_rows(tmp_path):
    ini = write_ini(tmp_path, PT_INI)
    out = tmp_path / "out"
    assert main(["diagnose", str(ini), "--out", str(out), "--format", "both"]) == 0
    doc = json.loads((out / "report.json").read_text())
    for key, name in (("spectrum", "spectrum.csv"), ("gram", "gram.csv"),
                      ("balance", "balance.csv"), ("pt", "pt_check.csv")):
        rows = read_rows(out / name)
        assert rows and len(rows) == len(doc[key]), key
        for row, doc_row in zip(rows, doc[key]):
            assert set(row) == set(doc_row), key
            for col, cell in row.items():
                assert _same_value(cell, doc_row[col]), (key, col, cell, doc_row[col])


def test_check_pt_strict_fails_for_asymmetric_mass(tmp_path, capsys):
    ini = write_ini(tmp_path, textwrap.dedent("""\
        [grid]
        x_min = -1.0
        x_max = 1.0
        n_points = 64

        [mass]
        family = linear
        m0 = 1.0
        lam = 0.5

        [potential]
        v_t = pt_from_mass
        """))
    code = main(["check-pt", str(ini), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "check pt_symmetry: FAIL" in captured.out
    assert "pt_symmetry" in captured.err
    # check-pt stops before the eigensolve
    assert not (tmp_path / "out" / "spectrum.csv").exists()
    assert (tmp_path / "out" / "pt_check.csv").exists()


def test_a_pt_config_on_an_asymmetric_grid_is_noted_or_gated(tmp_path, capsys):
    ini = write_ini(tmp_path, PT_INI.replace("x_min = -6.0", "x_min = -8.0")
                    .replace("x_max = 6.0", "x_max = 10.0"))
    out = tmp_path / "out"
    assert main(["diagnose", str(ini), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "note: grid is not symmetric about the origin; PT checks skipped" in text
    assert "check pt_symmetry" not in text
    assert (out / "spectrum.csv").exists()
    assert not (out / "pt_check.csv").exists()
    for argv in (["diagnose", "--strict-pt"], ["check-pt"]):
        assert main([argv[0], str(ini), "--out", str(out), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert ("check pt_symmetry: FAIL (grid not symmetric about the origin; "
                "PT symmetry undefined)") in captured.out
        assert captured.err == "FAILED checks: pt_symmetry\n"
        assert not (out / "pt_check.csv").exists()


def test_output_lands_beside_the_config_or_in_the_working_directory(
        tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    ini = write_ini(sub, FREE_INI + "\n[output]\ndirectory = res\n")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    # output.directory is relative to the config file, whatever the cwd
    for cwd, arg in ((tmp_path, "sub/run.ini"), (elsewhere, str(ini))):
        monkeypatch.chdir(cwd)
        assert main(["spectrum", arg]) == 0
        assert (sub / "res" / "spectrum.csv").is_file()
        for p in (sub / "res").iterdir():
            p.unlink()
    # no directory and no --out: <config stem>_out under the cwd
    plain = write_ini(sub, FREE_INI, name="plain.ini")
    monkeypatch.chdir(elsewhere)
    assert main(["spectrum", str(plain)]) == 0
    assert sorted(p.name for p in (elsewhere / "plain_out").iterdir()) == [
        "pt_check.csv", "spectrum.csv"]
    assert sorted(p.name for p in elsewhere.iterdir()) == ["plain_out"]
    assert sorted(p.name for p in (sub / "res").iterdir()) == []


def test_json_format_writes_single_report(tmp_path):
    ini = write_ini(tmp_path, FREE_INI)
    out = tmp_path / "out"
    assert main(["spectrum", str(ini), "--out", str(out), "--format", "json"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]
    doc = json.loads((out / "report.json").read_text())
    assert doc["passed"] is True
    assert doc["grid"]["boundary"] == "periodic"
    assert len(doc["spectrum"]) == 14
    assert doc["config"]["solver"]["wilson_r"] == 1.0


def test_sweep_alpha_zero_reduces_to_constant_mass(tmp_path):
    common = textwrap.dedent("""\
        [grid]
        x_min = -6.0
        x_max = 6.0
        n_points = 100

        [solver]
        max_pairs = 8
        """)
    sweep_ini = write_ini(tmp_path, common + textwrap.dedent("""\
        [mass]
        family = quadratic_even
        m0 = 1.0
        alpha = 0.1

        [potential]
        v_t = pt_from_mass
        """), name="sweep.ini")
    const_ini = write_ini(tmp_path, common + textwrap.dedent("""\
        [mass]
        family = constant
        m0 = 1.0
        """), name="const.ini")

    out = tmp_path / "sweep_out"
    assert main(["sweep", str(sweep_ini), "--param", "mass.alpha",
                 "--values", "0,0.1,0.5", "--out", str(out)]) == 0
    ref = tmp_path / "ref_out"
    assert main(["diagnose", str(const_ini), "--out", str(ref)]) == 0

    # alpha=0 collapses the mass profile and its induced v_t to the free case
    assert (out / "000_0" / "spectrum.csv").read_bytes() == \
        (ref / "spectrum.csv").read_bytes()

    rows = read_rows(out / "sweep_summary.csv")
    assert [r["value"] for r in rows] == ["0", "0.1", "0.5"]
    assert all(r["passed"] == "true" for r in rows)
    assert all(r["error"] == "" for r in rows)
    assert all(float(r["identity_residual"]) <= 1e-12 for r in rows)


def test_sweep_identity_residual_stays_at_rounding(tmp_path):
    ini = write_ini(tmp_path, PT_INI)
    out = tmp_path / "out"
    assert main(["sweep", str(ini), "--param", "grid.n_points",
                 "--values", "100,200", "--out", str(out)]) == 0
    rows = read_rows(out / "sweep_summary.csv")
    assert len(rows) == 2
    # the balance terms reuse the operator stencils, so the identity closes
    # to rounding on every grid; there is no truncation tail to decay
    for r in rows:
        assert float(r["identity_residual"]) <= 1e-12
        assert r["passed"] == "true"
        assert r["n_complex_pairs"] == "0"


def test_sweep_records_failed_value_and_continues(tmp_path, capsys):
    ini = write_ini(tmp_path, PT_INI)
    out = tmp_path / "out"
    code = main(["sweep", str(ini), "--param", "mass.alpha",
                 "--values", "0.1,-4.0", "--out", str(out)])
    assert code == 2
    rows = read_rows(out / "sweep_summary.csv")
    assert [r["value"] for r in rows] == ["0.1", "-4.0"]
    assert rows[0]["passed"] == "true"
    assert rows[1]["passed"] == "false"
    assert "positive" in rows[1]["error"]
    assert rows[1]["min_abs_im_e"] == "nan"
    assert "ERROR" in capsys.readouterr().out
    assert (out / "000_0.1" / "spectrum.csv").exists()


def test_sweep_summary_names_the_failed_checks(tmp_path, capsys):
    # solver.tol = 1e-30 runs to the end but fails solver_convergence; the
    # summary row and the console line say which check failed
    ini = write_ini(tmp_path, PT_INI)
    out = tmp_path / "out"
    code = main(["sweep", str(ini), "--param", "solver.tol",
                 "--values", "1e-9,1e-30", "--out", str(out)])
    assert code == 2
    rows = read_rows(out / "sweep_summary.csv")
    assert [(r["passed"], r["error"]) for r in rows] == [
        ("true", ""), ("false", "failed checks: solver_convergence")]
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("  solver.tol=1e-30: FAIL (failed checks: "
                               "solver_convergence; ") for line in lines)
    assert any(line.startswith("  solver.tol=1e-9: PASS (") for line in lines)


def test_sweep_values_may_start_with_a_minus(tmp_path):
    # --values -0.01,0.01 reaches the sweep; argparse alone reads the
    # token as an unknown option and stops with a usage error
    ini = write_ini(tmp_path, PT_INI)
    out = tmp_path / "out"
    assert main(["sweep", str(ini), "--param", "mass.alpha",
                 "--values", "-0.01,0.01", "--out", str(out)]) == 0
    rows = read_rows(out / "sweep_summary.csv")
    assert [r["value"] for r in rows] == ["-0.01", "0.01"]
    assert all(r["passed"] == "true" and r["error"] == "" for r in rows)
    assert (out / "000_-0.01" / "spectrum.csv").exists()


def test_a_second_sweep_into_one_directory_removes_the_first_runs(tmp_path):
    ini = write_ini(tmp_path, PT_INI)
    out = tmp_path / "out"
    assert main(["sweep", str(ini), "--param", "mass.alpha",
                 "--values", "0.1,0.2", "--out", str(out)]) == 0
    assert (out / "001_0.2" / "balance.csv").exists()
    # run directories holding anything but artifacts are the user's
    (out / "007_keep").mkdir()
    (out / "007_keep" / "notes.txt").write_text("mine")
    (out / "001_0.2" / "notes.txt").write_text("mine too")
    assert main(["sweep", str(ini), "--param", "mass.alpha",
                 "--values", "0.3", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "000_0.3", "001_0.2", "007_keep", "sweep_summary.csv"]
    assert sorted(p.name for p in (out / "001_0.2").iterdir()) == [
        "balance.csv", "gram.csv", "notes.txt", "pt_check.csv", "spectrum.csv"]
    assert (out / "007_keep" / "notes.txt").read_text() == "mine"
    assert [r["value"] for r in read_rows(out / "sweep_summary.csv")] == ["0.3"]

    (out / "001_0.2" / "notes.txt").unlink()
    assert main(["sweep", str(ini), "--param", "mass.alpha",
                 "--values", "0.3", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "000_0.3", "007_keep", "sweep_summary.csv"]


def test_sweep_summary_quotes_values_and_errors(tmp_path):
    # values holding a quote or a line break, and error messages full of
    # commas, all have to survive a round trip through a standard CSV reader
    ini = write_ini(tmp_path, PT_INI)
    out = tmp_path / "out"
    code = main(["sweep", str(ini), "--param", "mass.family",
                 "--values", '"x,a\nb,constant', "--out", str(out)])
    assert code == 2
    rows = read_rows(out / "sweep_summary.csv")
    assert [r["value"] for r in rows] == ['"x', "a\nb", "constant"]
    assert [r["passed"] for r in rows] == ["false", "false", "true"]
    assert "invalid value '\"x'" in rows[0]["error"]
    assert "constant, double_well" in rows[0]["error"]
    assert rows[2]["error"] == ""


def test_sweep_empty_values_writes_bare_summary(tmp_path, capsys):
    ini = write_ini(tmp_path, PT_INI)
    out = tmp_path / "out"
    assert main(["sweep", str(ini), "--param", "mass.alpha",
                 "--values", "", "--out", str(out)]) == 0
    assert "empty sweep" in capsys.readouterr().out
    text = (out / "sweep_summary.csv").read_text()
    assert text == "value,passed,min_abs_im_e,n_complex_pairs,identity_residual,error\n"


def test_usage_and_config_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["spectrum", str(tmp_path / "missing.ini")]) == 1
    assert "not found" in capsys.readouterr().err

    ini = write_ini(tmp_path, FREE_INI)
    assert main(["sweep", str(ini), "--param", "grid.nope",
                 "--values", "1"]) == 1
    assert "not a known config key" in capsys.readouterr().err
    assert main(["sweep", str(ini), "--param", "alpha", "--values", "1"]) == 1
    assert "section.key" in capsys.readouterr().err


def test_a_window_on_one_node_exits_one_before_any_run(tmp_path, capsys):
    narrow = PT_INI.replace("n_points = 100", "n_points = 61") + (
        "\n[diagnostics]\nwindow = -0.05:0.05\n")
    out = tmp_path / "out"
    assert main(["diagnose", str(write_ini(tmp_path, narrow)),
                 "--out", str(out)]) == 1
    assert "collapses onto node 30" in capsys.readouterr().err
    assert not out.exists()


def test_a_file_channel_that_is_not_numbers_exits_one(tmp_path, capsys):
    (tmp_path / "bad.txt").write_text("abc def\n")
    ini = write_ini(tmp_path, PT_INI.replace("v_t = pt_from_mass",
                                             "v_t = pt_from_mass\nv_s = file:bad.txt"))
    out = tmp_path / "out"
    assert main(["diagnose", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "potential.v_s: cannot read file bad.txt" in err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["constant:nan", "file:nan.txt"])
def test_a_non_finite_channel_exits_one(tmp_path, capsys, spec):
    np.savetxt(tmp_path / "nan.txt", np.full(100, np.nan))
    ini = write_ini(tmp_path, PT_INI.replace("v_t = pt_from_mass",
                                             f"v_t = pt_from_mass\nv_p = {spec}"))
    out = tmp_path / "out"
    assert main(["diagnose", str(ini), "--out", str(out)]) == 1
    assert f"potential.v_p: '{spec}' is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ("linear:1e308", "'linear:1e308' is not finite at every grid node"),
    ("file:empty.txt", "file empty.txt has shape (0, 1)"),
], ids=["overflow", "empty_file"])
def test_a_channel_that_overflows_or_is_empty_exits_one_without_warnings(
        tmp_path, capsys, recwarn, spec, message):
    # recwarn records every warning, so none may escape the config error
    (tmp_path / "empty.txt").write_text("")
    ini = write_ini(tmp_path, PT_INI.replace("v_t = pt_from_mass",
                                             f"v_t = pt_from_mass\nv_s = {spec}"))
    out = tmp_path / "out"
    assert main(["diagnose", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dirac1d: error: potential.v_s: ")
    assert message in err[0]
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


def test_tol_override_can_force_convergence_failure(tmp_path, capsys):
    ini = write_ini(tmp_path, FREE_INI)
    out = tmp_path / "out"
    code = main(["spectrum", str(ini), "--out", str(out), "--tol", "1e-18"])
    assert code == 2
    assert "solver_convergence" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "diagnose"])
def test_an_overflowing_eigensolve_fails_convergence_without_warnings(
        tmp_path, capsys, recwarn, command):
    # V_s = V_t = 1e308 is finite on the grid, but the rotated matrix
    # overflows and the eigensolver returns NaN: a NaN residual must fail
    # the gate, with no numpy warning on the way
    ini = write_ini(tmp_path, textwrap.dedent("""\
        [grid]
        x_min = -5.0
        x_max = 5.0
        n_points = 40

        [mass]
        family = constant

        [potential]
        v_s = constant:1e308
        v_t = constant:1e308
        """))
    assert main([command, str(ini), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "FAILED checks: solver_convergence\n"
    assert [str(w.message) for w in recwarn] == []


SMALL_BOX = textwrap.dedent("""\
    [grid]
    x_min = -5.0
    x_max = 5.0
    n_points = 40

    [mass]
    family = constant
    """)


@pytest.mark.parametrize("command", ["spectrum", "diagnose", "check-pt"])
@pytest.mark.parametrize("extra, message", [
    ("m0 = 1e308\n[potential]\nv_s = constant:1e308\n",
     "the local block gamma0 (M + V) is not finite at node 0 (x = -5)"),
    ("[potential]\nv_t = constant:1e308\nv_sp = constant:1e308\n",
     "the local block gamma0 (M + V) is not finite at node 0 (x = -5)"),
    ("[solver]\nwilson_r = 1e308\n[potential]\nv_t = constant:1j\n",
     "wilson_r = 1e+308 overflows the operator"),
    ("[solver]\nwilson_r = 1e308\n", "wilson_r = 1e+308 overflows the operator"),
], ids=["mass_and_v_s", "v_t_and_v_sp", "wilson_r_pt", "wilson_r_hermitian"])
def test_an_operator_that_overflows_exits_one_without_warnings(
        tmp_path, capsys, recwarn, command, extra, message):
    # every sample is finite, but a block sum or the Wilson weight is not
    ini = write_ini(tmp_path, SMALL_BOX + extra)
    out = tmp_path / "out"
    assert main([command, str(ini), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"dirac1d: error: {message}")
    assert len(captured.err.splitlines()) == 1
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


@pytest.mark.parametrize("bound", ["1e308", "1e-320"])
def test_a_grid_spacing_that_is_not_usable_exits_one_without_warnings(
        tmp_path, capsys, recwarn, bound):
    ini = write_ini(tmp_path, f"[grid]\nx_min = -{bound}\nx_max = {bound}\n"
                    "n_points = 10\n\n[mass]\nfamily = constant\n")
    out = tmp_path / "out"
    assert main(["diagnose", str(ini), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"dirac1d: error: x_min and x_max must be a finite distance apart "
        f"with a finite 1/h, got x_min=-{float(bound)!r}, x_max={float(bound)!r}")
    assert len(captured.err.splitlines()) == 1
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


def test_a_run_without_flags_validates_its_config_once(tmp_path, monkeypatch):
    # validation rebuilds the grid, mass and channels and re-reads file:
    # tables; a flag re-validates the config with the flag applied
    calls = []
    validate = dirac1d.config._validate_semantics

    def counted(cfg):
        calls.append(cfg)
        validate(cfg)
    monkeypatch.setattr(dirac1d.config, "_validate_semantics", counted)
    ini = write_ini(tmp_path, PT_INI)
    assert main(["diagnose", str(ini), "--out", str(tmp_path / "a")]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["diagnose", str(ini), "--out", str(tmp_path / "b"),
                 "--tol", "1e-9"]) == 0
    assert len(calls) == 2


def test_flags_are_validated_and_echoed_like_config_keys(tmp_path, capsys):
    ini = write_ini(tmp_path, FREE_INI)
    for tol in ("-1", "0", "nan", "-1e-3", "-inf"):
        assert main(["spectrum", str(ini), "--tol", tol]) == 1
        assert "solver.tol" in capsys.readouterr().err
    assert main(["spectrum", str(write_ini(tmp_path, FREE_INI + "tol = nan\n",
                                           name="nan.ini"))]) == 1
    assert "solver.tol" in capsys.readouterr().err
    assert main(["spectrum", str(ini), "--format", "xml"]) == 1
    assert "output.formats" in capsys.readouterr().err

    out = tmp_path / "out"
    assert main(["spectrum", str(ini), "--out", str(out), "--tol", "1e-6",
                 "--format", "json"]) == 0
    echo = json.loads((out / "report.json").read_text())["config"]
    assert echo["solver"]["tol"] == 1e-6
    assert echo["output"]["formats"] == "json"


ARTIFACTS = ("spectrum.csv", "gram.csv", "balance.csv", "pt_check.csv",
             "report.json")


def test_a_rerun_into_one_directory_leaves_no_stale_artifacts(tmp_path):
    ini = write_ini(tmp_path, PT_INI)
    out = tmp_path / "out"
    (out / "keep").mkdir(parents=True)
    (out / "notes.txt").write_text("not an artifact")
    assert main(["diagnose", str(ini), "--out", str(out), "--format", "both"]) == 0
    assert all((out / name).exists() for name in ARTIFACTS)
    assert main(["check-pt", str(ini), "--out", str(out), "--format", "both"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "keep", "notes.txt", "pt_check.csv", "report.json"]
    assert json.loads((out / "report.json").read_text())["mode"] == "check-pt"

    out = tmp_path / "formats"
    assert main(["diagnose", str(ini), "--out", str(out), "--format", "csv"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS[:4])
    assert main(["diagnose", str(ini), "--out", str(out), "--format", "json"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


def test_report_json_with_complex_levels_is_what_json_dumps_writes(tmp_path):
    ini = write_ini(tmp_path, textwrap.dedent("""\
        [grid]
        x_min = -6.0
        x_max = 6.0
        n_points = 121

        [mass]
        family = constant
        m0 = 1.0

        [potential]
        v_s = abs:0.5
        v_t = linear:0.6j
        """))
    out = tmp_path / "out"
    assert main(["diagnose", str(ini), "--out", str(out), "--format", "json"]) == 0
    text = (out / "report.json").read_text()
    doc = json.loads(text)
    assert any(r["classification"] == "complex_pair_member"
               for r in doc["spectrum"])
    assert doc["gram"] and doc["balance"]
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


def scipy_modules_after(code):
    """The scipy modules loaded once code has run in a fresh interpreter."""
    src = str(Path(dirac1d.__file__).resolve().parents[1])
    code += textwrap.dedent("""
        import sys
        print(sorted(m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")))
        """)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_setup_imports_no_scipy(tmp_path):
    # what the benchmark's setup_s times: import the CLI and parse a config;
    # scipy is left to the shooter, the only code that uses it
    ini = write_ini(tmp_path, PT_INI)
    assert scipy_modules_after(textwrap.dedent(f"""\
        import dirac1d
        import dirac1d.cli
        dirac1d.config.parse_config({str(ini)!r})
        """)) == "[]"


@pytest.mark.parametrize("text", [FREE_INI, PT_INI], ids=["hermitian", "pt"])
def test_diagnose_loads_no_scipy(tmp_path, text):
    # a whole diagnose run, through either eigensolver and every writer, on a
    # real Hermitian config and on the README's PT config (at n = 100): the
    # worker's peak RSS would carry scipy's ~48 MB if any of it loaded scipy
    ini = write_ini(tmp_path, text)
    out = tmp_path / "out"
    assert scipy_modules_after(textwrap.dedent(f"""\
        from dirac1d.cli import main
        assert main(["diagnose", {str(ini)!r}, "--out", {str(out)!r},
                     "--format", "both"]) == 0
        """)) == "[]"
    assert (out / "report.json").is_file()
