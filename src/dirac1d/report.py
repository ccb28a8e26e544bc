"""Run pipelines (spectrum / diagnose / check-pt) and deterministic writers.

Every report table is a {header: column} dict: the spectrum table is built
from the result's (K, n, 2) state stack, the PT table from the channel
checks, and the Gram and balance tables from the matrix and the
BalanceTable.  The writers pick each column's formatter from its numpy
dtype kind alone (floats, ints, bools, else text), and a float column
formats each distinct bit pattern once; the CSVs and report.json hold the
same rows.  Reports carry no timestamps or timing so repeated runs of the
same configuration produce byte-identical CSV and JSON artifacts.  The
CSVs write floats as %.17g (17 significant digits, enough to round-trip a
double).  report.json is exactly json.dumps(indent=2, sort_keys=True) of
the document: floats in Python's shortest round-trip repr, non-finite ones
as NaN, Infinity and -Infinity.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .config import CHANNELS, RunConfig
from .diagnostics import (BalanceTable, continuity_residual, gram_matrix,
                          normalize_result, orthogonality_balance)
from .errors import ConvergenceError, Dirac1DError
from .hamiltonian import assemble_hamiltonian, hermiticity_of_operator
from .lorentz import check_pt_symmetry, gamma0_hermiticity_residual, sample_mass
from .solver import solve_spectrum

MODES = ("spectrum", "diagnose", "check-pt")


def f17(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


@dataclass
class RunReport:
    """One run's tables and checks; spectrum and pt are {header: column}
    tables, gram the matrix and balance the BalanceTable they are written
    from."""

    mode: str
    config: dict
    grid_info: dict = field(default_factory=dict)
    spectrum: dict = field(default_factory=dict)
    pt: dict = field(default_factory=dict)
    hermiticity: dict = field(default_factory=dict)
    gram: Optional[np.ndarray] = None
    balance: Optional[BalanceTable] = None
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def execute(cfg: RunConfig, mode: str, strict_pt: bool = False) -> RunReport:
    """Run one pipeline over a validated configuration."""
    if mode not in MODES:
        raise Dirac1DError(f"unknown mode {mode!r}")
    report = RunReport(mode=mode, config=cfg.values)

    grid = cfg.build_grid()
    profile = cfg.build_mass_profile()
    mass = sample_mass(profile, grid)
    potential = cfg.build_potential(grid, profile)
    scheme = cfg["solver"]["scheme"]
    wilson_r = cfg["solver"]["wilson_r"]
    tol = cfg["solver"]["tol"]
    pt_tol = cfg["diagnostics"]["pt_tol"]
    op = assemble_hamiltonian(grid, potential, mass, scheme=scheme,
                              wilson_r=wilson_r)

    report.grid_info = {
        "h": grid.h,
        "n_points": grid.n_points,
        "boundary": grid.boundary,
        "matrix_dim": op.size,
        "scheme": scheme,
        "wilson_r": wilson_r,
    }

    # PT symmetry of each channel (informational; gating below)
    declared_pt = cfg.pt_channels()
    if grid.is_symmetric():
        names = CHANNELS + ("mass",)
        checks = [check_pt_symmetry(f, tol=pt_tol) for f in
                  [getattr(potential, c) for c in CHANNELS] + [mass]]
        report.pt = {
            "channel": names,
            "declared_pt": np.array([name in declared_pt for name in names]),
            "residual": np.array([pt.residual for pt in checks]),
            "symmetric": np.array([pt.symmetric for pt in checks]),
            "tol": np.array([pt.tol for pt in checks]),
        }
    else:
        report.notes.append(
            "grid is not symmetric about the origin; PT checks skipped"
        )

    gate_pt = strict_pt or mode == "check-pt"
    if gate_pt:
        if not grid.is_symmetric():
            report.checks.append(CheckOutcome(
                "pt_symmetry", False,
                "grid not symmetric about the origin; PT symmetry undefined"))
        elif declared_pt:
            pt = report.pt
            bad = np.flatnonzero(pt["declared_pt"] & ~pt["symmetric"]).tolist()
            if bad:
                detail = "; ".join(
                    f"{pt['channel'][i]} residual {pt['residual'][i]:.3e} "
                    f"> {pt['tol'][i]:g}" for i in bad)
                report.checks.append(CheckOutcome("pt_symmetry", False, detail))
            else:
                worst = max(pt["residual"][pt["declared_pt"]].tolist())
                report.checks.append(CheckOutcome(
                    "pt_symmetry", True,
                    f"all declared channels within {pt_tol:g} "
                    f"(worst {worst:.3e})"))
        else:
            report.checks.append(CheckOutcome(
                "pt_symmetry", True, "no channel declared pt_from_mass"))

    report.hermiticity["gamma0_potential"] = gamma0_hermiticity_residual(
        potential)

    if mode == "check-pt":
        return report

    report.hermiticity["operator"] = hermiticity_of_operator(op)

    try:
        result = solve_spectrum(op, tol=tol,
                                max_pairs=cfg["solver"]["max_pairs"],
                                reality_tol=cfg["diagnostics"]["reality_tol"])
    except ConvergenceError as exc:
        report.checks.append(CheckOutcome("solver_convergence", False, str(exc)))
        return report
    report.checks.append(CheckOutcome(
        "solver_convergence", True,
        f"max residual {float(np.max(result.residuals)):.3e} <= {tol:g}"))

    unpaired = sum(1 for t in result.classification if t == "complex_unpaired")
    report.checks.append(CheckOutcome(
        "conjugate_pairing", unpaired == 0,
        "all complex eigenvalues conjugate-paired" if unpaired == 0
        else f"{unpaired} unpaired complex eigenvalue(s)"))

    if mode == "diagnose":
        result = normalize_result(result)

    e = result.energies
    report.spectrum = {"index": np.arange(len(e)), "energy_re": e.real,
                       "energy_im": e.imag, "residual": result.residuals,
                       "classification": result.classification}

    if mode == "diagnose":
        if grid.boundary == "dirichlet":
            # |phi_plus| + |phi_minus| at the nodes next to the two walls;
            # hypot is what abs(complex) computes, np.abs rounds differently
            a = np.hypot(result.states.real, result.states.imag).sum(axis=2)
            tail = np.maximum(a[:, 1], a[:, -2])
        else:
            tail = np.zeros(len(e))
        report.spectrum["tail_amplitude"] = tail
        report.spectrum["continuity_max"] = np.abs(
            continuity_residual(result)).max(axis=1)
        report.gram = gram_matrix(result)

        d = cfg["diagnostics"]
        window = None
        if d["window"] is not None:
            window = (grid.nearest_node(d["window"][0]),
                      grid.nearest_node(d["window"][1]))
        identity_tol = None if d["identity_tol"] == "auto" else d["identity_tol"]
        pairs = list(d["balance_pairs"])
        if not pairs:
            low = min(d["balance_lowest"], len(result.energies))
            pairs = [(k, kp) for k in range(low) for kp in range(k)]
        table, failures = orthogonality_balance(
            result, pairs, window=window, identity_tol=identity_tol)
        report.checks.extend(
            CheckOutcome("balance_identity", False, f"pair ({k},{kp}): {why}")
            for k, kp, why in failures)
        report.balance = table
        if len(table):
            # Python's max, as over the per-pair residuals: NaN reads the same
            bad = table.identity_residual[~table.identity_ok].tolist()
            report.checks.append(CheckOutcome(
                "balance_identity", not bad,
                f"{len(table)} pair(s), worst residual "
                f"{max(table.identity_residual.tolist()):.3e}"
                if not bad else
                f"{len(bad)} pair(s) exceed tolerance, worst {max(bad):.3e}"))

        # current conservation is only an exit-relevant check for Hermitian
        # potentials; PT runs legitimately violate it and just report values
        if report.hermiticity["gamma0_potential"] <= 1e-14:
            scale = 100.0 * grid.h ** 2
            worst = max(report.spectrum["continuity_max"].tolist(), default=0.0)
            report.checks.append(CheckOutcome(
                "continuity_conserved", worst <= scale,
                f"max residual {worst:.3e} vs bound {scale:.3e}"))
        else:
            report.notes.append(
                "potential has an anti-Hermitian part; continuity residuals "
                "reported but not gated")

    return report


_CSV_QUOTE = re.compile(r'[,"\r\n]')


def _csv_cell(v) -> str:
    cell = str(v)
    if _CSV_QUOTE.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


_BOOLS = {False: "false", True: "true"}


def _distinct_cells(column, format_floats) -> list[str]:
    """The column's floats formatted by format_floats, which is handed each
    distinct bit pattern once.

    Keyed on bits, not values: 0.0 == -0.0 but the two are written apart.
    """
    bits, inverse = np.unique(np.ascontiguousarray(column, dtype=np.float64)
                              .view(np.uint64), return_inverse=True)
    cells = np.array(format_floats(bits.view(np.float64)), dtype=object)
    return cells[inverse].tolist()


def _cells(column, format_floats, format_text) -> list[str]:
    """The column's cells, formatted by its numpy dtype kind: floats by
    format_floats, ints by int.__repr__, bools as true/false, and anything
    else, one cell at a time, by format_text."""
    values = np.asarray(column)
    kind = values.dtype.kind
    if kind == "f":
        return _distinct_cells(values, format_floats)
    if kind in "iu":
        return list(map(int.__repr__, values.tolist()))
    if kind == "b":
        return list(map(_BOOLS.__getitem__, values.tolist()))
    return list(map(format_text, column))


def _csv_floats(values: np.ndarray) -> list[str]:
    # "%.17g" gives the digits of f17
    return list(map("%.17g".__mod__, values.tolist()))


def _csv_cells(column) -> list[str]:
    return _cells(column, _csv_floats, _csv_cell)


def _json_floats(values: np.ndarray) -> list[str]:
    """float.__repr__, with NaN, Infinity and -Infinity as json writes them."""
    cells = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        cells[i] = json.dumps(float(values[i]))
    return cells


def _json_cells(column) -> list[str]:
    return _cells(column, _json_floats, json.dumps)


def _gram_columns(g: np.ndarray) -> dict[str, np.ndarray]:
    """G as the columns k_prime, k, re, im, one row per entry G[k', k]."""
    n_rows, n_cols = g.shape
    return {"k_prime": np.repeat(np.arange(n_rows), n_cols),
            "k": np.tile(np.arange(n_cols), n_rows),
            "re": g.real.ravel(), "im": g.imag.ravel()}


def _balance_columns(t: BalanceTable) -> dict[str, np.ndarray]:
    """The balance table as its CSV/JSON columns, one row per pair."""
    return {"k": t.k, "k_prime": t.k_prime,
            "term_energy_re": t.term_energy.real,
            "term_energy_im": t.term_energy.imag,
            "term_boundary_re": t.term_boundary.real,
            "term_boundary_im": t.term_boundary.imag,
            "term_potential_re": t.term_potential.real,
            "term_potential_im": t.term_potential.imag,
            "identity_residual": t.identity_residual,
            "identity_tol": np.full(len(t), t.identity_tol),
            "identity_ok": t.identity_ok,
            "orthogonality_gap": t.orthogonality_gap,
            "orthogonality_restored": t.orthogonality_restored}


def _n_rows(table: dict[str, list]) -> int:
    return len(next(iter(table.values()), ()))


def write_csv(path: Path, table: dict[str, list]) -> None:
    """Write a {header: column} table as CSV: the header line, then the rows."""
    cells = [_csv_cells(column) for column in table.values()]
    lines = [",".join(table), *map(",".join, zip(*cells))]
    path.write_text("\n".join(lines) + "\n")


def _json_rows(table: dict[str, list]) -> str:
    """The table as the list of row objects json.dumps(indent=2,
    sort_keys=True) writes for a key of the top-level object."""
    if not _n_rows(table):
        return "[]"
    keys = sorted(table)
    template = "    {\n%s\n    }" % ",\n".join(
        "      %s: %%s" % json.dumps(key).replace("%", "%%") for key in keys)
    rows = zip(*(_json_cells(table[key]) for key in keys))
    return "[\n" + ",\n".join(map(template.__mod__, rows)) + "\n  ]"


def _report_json(doc: dict, tables: dict[str, dict]) -> str:
    """json.dumps({**doc, **tables}, indent=2, sort_keys=True) + "\n".

    Each value of doc is written by json.dumps, indented one level; the
    tables are spliced in at their sorted-key positions.
    """
    parts = {key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
             for key, value in doc.items()}
    parts.update((key, _json_rows(table)) for key, table in tables.items())
    return "{\n%s\n}\n" % ",\n".join(
        f"  {json.dumps(key)}: {parts[key]}" for key in sorted(parts))


# (table key, CSV file name) in writing order; report.json holds the same
# rows under the table keys
_TABLES = (("spectrum", "spectrum.csv"), ("gram", "gram.csv"),
           ("balance", "balance.csv"), ("pt", "pt_check.csv"))
OUTPUTS = tuple(name for _, name in _TABLES) + ("report.json",)


def write_outputs(report: RunReport, out_dir: Path, formats: str) -> list[Path]:
    """Write spectrum/gram/balance/pt CSVs and/or report.json; returns paths.

    Any of those five files that this run does not write is removed from
    out_dir, so no artifact of an earlier run is left beside this one's.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {"spectrum": report.spectrum,
              "balance": ({} if report.balance is None
                          else _balance_columns(report.balance)),
              "pt": report.pt}
    if report.gram is not None:
        tables["gram"] = _gram_columns(report.gram)
    written: list[Path] = []

    if formats in ("csv", "both"):
        for key, name in _TABLES:
            if key in tables and _n_rows(tables[key]):
                write_csv(out_dir / name, tables[key])
                written.append(out_dir / name)

    if formats in ("json", "both"):
        doc = {"mode": report.mode, "config": report.config,
               "grid": report.grid_info, "hermiticity": report.hermiticity,
               "checks": [asdict(c) for c in report.checks],
               "notes": report.notes, "passed": report.passed}
        p = out_dir / "report.json"
        p.write_text(_report_json(doc, tables))
        written.append(p)

    for name in OUTPUTS:
        if out_dir / name not in written:
            (out_dir / name).unlink(missing_ok=True)
    return written
