"""The run pipeline (execute) and its deterministic writers.

Every report table is a {header: column} dict: the spectrum table is built
from the result's (K, n, 2) state stack, the PT table from the channel
checks, and the Gram and balance tables from the matrix and the
BalanceTable.  The writers spell one table at a time, picking each
column's rule from its numpy dtype kind alone (floats, ints, bools, else
text), and the CSV and report.json share the cells.  A float is Python's
shortest round-trip repr in both files, formatted once per distinct
magnitude and given its sign as a "-" prefix (a NaN shows no sign); only
report.json spells the non-finite ones as NaN, Infinity and -Infinity,
where the CSVs keep nan, inf and -inf.  report.json is exactly
json.dumps(indent=2, sort_keys=True) of the document.  Reports carry no
timestamps or timing so repeated runs of the same configuration produce
byte-identical CSV and JSON artifacts.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .config import CHANNELS, FORMATS, RunConfig
from .diagnostics import (AUTO_IDENTITY_TOL, BalanceTable, continuity_residual,
                          gram_matrix, normalize_result, orthogonality_balance)
from .errors import ConvergenceError, Dirac1DError
from .hamiltonian import (DiracOperator, assemble_hamiltonian,
                          hermiticity_of_operator)
from .lorentz import check_pt_symmetry, gamma0_hermiticity_residual, sample_mass
from .solver import SpectrumResult, solve_spectrum

MODES = ("spectrum", "diagnose", "check-pt")


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
    """Run one pipeline over a validated configuration.

    The stages run in one order: build the grid, mass, potential and
    operator; the PT stage; the solve; the spectrum table; the diagnostics.
    The mode only decides where the run stops: check-pt after the PT stage,
    which it always gates, and spectrum after the table.
    """
    if mode not in MODES:
        raise Dirac1DError(f"unknown mode {mode!r}")
    report = RunReport(mode=mode, config=cfg.values)

    grid = cfg.build_grid()
    profile = cfg.build_mass_profile()
    mass = sample_mass(profile, grid)
    potential = cfg.build_potential(grid, profile)
    s = cfg["solver"]
    op = assemble_hamiltonian(grid, potential, mass, scheme=s["scheme"],
                              wilson_r=s["wilson_r"])
    report.grid_info = {"h": grid.h, "n_points": grid.n_points,
                        "boundary": grid.boundary, "matrix_dim": op.size,
                        "scheme": s["scheme"], "wilson_r": s["wilson_r"]}

    pt_only = mode == "check-pt"
    _pt_stage(report, cfg, op, gate=strict_pt or pt_only)
    report.hermiticity["gamma0_potential"] = gamma0_hermiticity_residual(
        potential)
    if pt_only:
        return report

    report.hermiticity["operator"] = hermiticity_of_operator(op)
    try:
        result = solve_spectrum(op, tol=s["tol"], max_pairs=s["max_pairs"],
                                reality_tol=cfg["diagnostics"]["reality_tol"])
    except ConvergenceError as exc:
        report.checks.append(CheckOutcome("solver_convergence", False, str(exc)))
        return report
    report.checks.append(CheckOutcome(
        "solver_convergence", True,
        f"max residual {float(np.max(result.residuals)):.3e} <= {s['tol']:g}"))
    unpaired = sum(1 for t in result.classification if t == "complex_unpaired")
    report.checks.append(CheckOutcome(
        "conjugate_pairing", unpaired == 0,
        "all complex eigenvalues conjugate-paired" if unpaired == 0
        else f"{unpaired} unpaired complex eigenvalue(s)"))

    # normalize_result replaces only the states, so the table is the same
    # before and after it
    e = result.energies
    report.spectrum = {"index": np.arange(len(e)), "energy_re": e.real,
                       "energy_im": e.imag, "residual": result.residuals,
                       "classification": result.classification}
    if mode == "spectrum":
        return report

    _diagnostics_stage(report, cfg, result)
    return report


def _pt_stage(report: RunReport, cfg: RunConfig, op: DiracOperator,
              gate: bool) -> None:
    """The PT table of the operator's four channels and mass, or a note when
    the grid is not symmetric about the origin; with gate, the pt_symmetry
    check of the channels declared pt_from_mass."""
    pt_tol = cfg["diagnostics"]["pt_tol"]
    declared = cfg.pt_channels()
    if op.grid.is_symmetric():
        names = CHANNELS + ("mass",)
        residual = np.array([check_pt_symmetry(f) for f in
                             [getattr(op.potential, c) for c in CHANNELS]
                             + [op.mass]])
        declared_pt = np.array([name in declared for name in names])
        symmetric = residual <= pt_tol
        report.pt = {"channel": names, "declared_pt": declared_pt,
                     "residual": residual, "symmetric": symmetric,
                     "tol": np.full(len(names), pt_tol)}
        bad = np.flatnonzero(declared_pt & ~symmetric).tolist()
        if bad:
            outcome = CheckOutcome("pt_symmetry", False, "; ".join(
                f"{names[i]} residual {residual[i]:.3e} > {pt_tol:g}"
                for i in bad))
        elif declared:
            worst = max(residual[declared_pt].tolist())
            outcome = CheckOutcome(
                "pt_symmetry", True,
                f"all declared channels within {pt_tol:g} (worst {worst:.3e})")
        else:
            outcome = CheckOutcome("pt_symmetry", True,
                                   "no channel declared pt_from_mass")
    else:
        report.notes.append(
            "grid is not symmetric about the origin; PT checks skipped")
        outcome = CheckOutcome(
            "pt_symmetry", False,
            "grid not symmetric about the origin; PT symmetry undefined")
    if gate:
        report.checks.append(outcome)


def _diagnostics_stage(report: RunReport, cfg: RunConfig,
                       result: SpectrumResult) -> None:
    """Normalize the states, then add their tail amplitudes and continuity
    residuals to the spectrum table, the Gram matrix, the balance table
    and its checks, and the continuity check."""
    result = normalize_result(result)
    grid = result.grid
    if grid.boundary == "dirichlet":
        # |phi_plus| + |phi_minus| at the nodes next to the two walls;
        # hypot is what abs(complex) computes, np.abs rounds differently
        a = np.hypot(result.states.real, result.states.imag).sum(axis=2)
        tail = np.maximum(a[:, 1], a[:, -2])
    else:
        tail = np.zeros(len(result.energies))
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
        pairs = np.stack(np.tril_indices(low, -1), axis=1)
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

    # R includes the source terms, so it closes at rounding for every
    # eigenstate, Hermitian or not: its flux terms are at most
    # (1 + wilson_r) j0 / h, and a normalized j0 is at most 1 / h
    scale = AUTO_IDENTITY_TOL * (1.0 + result.operator.wilson_r) / grid.h ** 2
    worst = max(report.spectrum["continuity_max"].tolist(), default=0.0)
    report.checks.append(CheckOutcome(
        "continuity_conserved", worst <= scale,
        f"max residual {worst:.3e} vs bound {scale:.3e}"))


_CSV_QUOTE = re.compile(r'[,"\r\n]')


def _csv_cell(v) -> str:
    cell = str(v)
    if _CSV_QUOTE.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


_BOOLS = {False: "false", True: "true"}


def _signed(cells: list[str]) -> np.ndarray:
    """cells, then each of them with a "-" in front, as one object array."""
    return np.array(cells + ["-" + cell for cell in cells], dtype=object)


def _column_cells(column) -> tuple[list[str], list[str]]:
    """The column's (CSV, JSON) cells, by its numpy dtype kind.

    A float is float.__repr__ in both files, formatted once per distinct
    magnitude (compared by bits) and given a "-" prefix where its sign bit
    is set, so -0.0 is written apart from 0.0; only report.json spells the
    non-finite ones as json does.  Ints (int.__repr__, once per distinct
    value) and bools (true/false) are one list for both files; text is
    _csv_cell in the CSV and json.dumps in report.json.
    """
    values = np.asarray(column)
    kind = values.dtype.kind
    if kind == "f":
        x = np.ascontiguousarray(values, dtype=np.float64)
        bits, inverse = np.unique(np.abs(x).view(np.uint64), return_inverse=True)
        magnitudes = bits.view(np.float64)
        # repr(-x) is "-" + repr(x), and json.dumps alike, for every float
        # but NaN, whose cell shows no sign: cell m + i is magnitude i negated
        index = inverse + len(magnitudes) * (np.signbit(x) & ~np.isnan(x))
        cells = list(map(float.__repr__, magnitudes.tolist()))
        csv_cells = _signed(cells)[index].tolist()
        nonfinite = np.flatnonzero(~np.isfinite(magnitudes))
        if not nonfinite.size:
            return csv_cells, csv_cells
        for i in nonfinite.tolist():
            cells[i] = json.dumps(magnitudes[i].item())
        return csv_cells, _signed(cells)[index].tolist()
    if kind in "iu":
        distinct, inverse = np.unique(values, return_inverse=True)
        cells = np.array(list(map(int.__repr__, distinct.tolist())), dtype=object)
        cells = cells[inverse].tolist()
    elif kind == "b":
        cells = list(map(_BOOLS.__getitem__, values.tolist()))
    else:
        return list(map(_csv_cell, column)), list(map(json.dumps, column))
    return cells, cells


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


def _joined_rows(head: str, cells: list[list[str]],
                 separators: list[str]) -> list[str]:
    """The parts of a table's text, for one "".join: head, then every row as
    cell i of each column followed by separators[i]."""
    n_rows = len(cells[0]) if cells else 0
    step = 2 * len(cells)
    parts = [head] * (1 + step * n_rows)
    for i, (column, separator) in enumerate(zip(cells, separators)):
        parts[1 + 2 * i::step] = column
        parts[2 + 2 * i::step] = [separator] * n_rows
    return parts


def _write_csv(path: Path, columns: dict[str, list[str]]) -> None:
    separators = [","] * (len(columns) - 1) + ["\n"]
    path.write_text("".join(_joined_rows(",".join(columns) + "\n",
                                         list(columns.values()), separators)))


def write_csv(path: Path, table: dict[str, list]) -> None:
    """Write a {header: column} table as CSV: the header line, then the rows."""
    _write_csv(path, {key: _column_cells(column)[0]
                      for key, column in table.items()})


def _json_rows(columns: dict[str, list[str]]) -> list[str]:
    """The parts of the list of row objects json.dumps(indent=2,
    sort_keys=True) writes for the table under a key of the top-level
    object, given the table's JSON cells."""
    if not _n_rows(columns):
        return ["[]"]
    keys = sorted(columns)
    names = list(map(json.dumps, keys))
    first = f"\n    {{\n      {names[0]}: "
    separators = [f",\n      {name}: " for name in names[1:]] + ["\n    }," + first]
    parts = _joined_rows("[" + first, [columns[key] for key in keys], separators)
    parts[-1] = "\n    }\n  ]"
    return parts


def _report_json(doc: dict, tables: dict[str, list[str]]) -> str:
    """json.dumps({**doc, **tables}, indent=2, sort_keys=True) + "\n", given
    each table as the parts _json_rows writes for it.

    Each value of doc is written by json.dumps, indented one level; the
    tables' parts are spliced in at their sorted-key positions, and the
    whole text is one join.
    """
    parts = ["{"]
    for key in sorted({*doc, *tables}):
        parts.append(f"\n  {json.dumps(key)}: ")
        if key in tables:
            parts.extend(tables[key])
        else:
            parts.append(json.dumps(doc[key], indent=2, sort_keys=True)
                         .replace("\n", "\n  "))
        parts.append(",")
    parts[-1] = "\n}\n"
    return "".join(parts)


# (table key, CSV file name) in writing order; report.json holds the same
# rows under the table keys
_TABLES = (("spectrum", "spectrum.csv"), ("gram", "gram.csv"),
           ("balance", "balance.csv"), ("pt", "pt_check.csv"))
OUTPUTS = tuple(name for _, name in _TABLES) + ("report.json",)


def write_outputs(report: RunReport, out_dir: Path, formats: str) -> list[Path]:
    """Write spectrum/gram/balance/pt CSVs and/or report.json; returns paths.

    formats is one of config.FORMATS; any other value raises before out_dir
    is touched.  Any of those five files that this run does not write is
    removed from out_dir, so no artifact of an earlier run is left beside
    this one's.
    """
    if formats not in FORMATS:
        raise Dirac1DError(f"unknown output formats {formats!r}; expected one of {FORMATS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {"spectrum": report.spectrum,
              "balance": ({} if report.balance is None
                          else _balance_columns(report.balance)),
              "pt": report.pt}
    if report.gram is not None:
        tables["gram"] = _gram_columns(report.gram)
    written: list[Path] = []
    json_tables: dict[str, list[str]] = {}

    for key, name in _TABLES:
        if key not in tables:
            continue
        csv_cells, json_cells = {}, {}
        for header, column in tables[key].items():
            csv_cells[header], json_cells[header] = _column_cells(column)
        if formats in ("csv", "both") and _n_rows(csv_cells):
            _write_csv(out_dir / name, csv_cells)
            written.append(out_dir / name)
        if formats in ("json", "both"):
            json_tables[key] = _json_rows(json_cells)

    if formats in ("json", "both"):
        doc = {"mode": report.mode, "config": report.config,
               "grid": report.grid_info, "hermiticity": report.hermiticity,
               "checks": [asdict(c) for c in report.checks],
               "notes": report.notes, "passed": report.passed}
        p = out_dir / "report.json"
        p.write_text(_report_json(doc, json_tables))
        written.append(p)

    for name in OUTPUTS:
        if out_dir / name not in written:
            (out_dir / name).unlink(missing_ok=True)
    return written
