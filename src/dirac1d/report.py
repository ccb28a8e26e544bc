"""Run pipelines (spectrum / diagnose / check-pt) and deterministic writers.

Each report table is a list of row dicts; the CSVs and report.json are
written from the same rows.  Reports carry no timestamps or timing so
repeated runs of the same configuration produce byte-identical CSV and JSON
artifacts.  Floats are written with 17 significant digits, enough to
round-trip doubles.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .config import CHANNELS, RunConfig
from .diagnostics import (BalanceReport, continuity_residual, gram_matrix,
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
    mode: str
    config: dict
    grid_info: dict = field(default_factory=dict)
    spectrum_rows: list = field(default_factory=list)
    pt_rows: list = field(default_factory=list)
    hermiticity: dict = field(default_factory=dict)
    gram: Optional[np.ndarray] = None
    balance_rows: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _node_index(grid, x: float) -> int:
    return int(np.argmin(np.abs(grid.nodes - x)))


def _balance_row(rep: BalanceReport) -> dict:
    return {
        "k": rep.k,
        "k_prime": rep.k_prime,
        "term_energy_re": rep.term_energy.real,
        "term_energy_im": rep.term_energy.imag,
        "term_boundary_re": rep.term_boundary.real,
        "term_boundary_im": rep.term_boundary.imag,
        "term_potential_re": rep.term_potential.real,
        "term_potential_im": rep.term_potential.imag,
        "identity_residual": rep.identity_residual,
        "identity_tol": rep.identity_tol,
        "identity_ok": rep.identity_ok,
        "orthogonality_gap": rep.orthogonality_gap,
        "orthogonality_restored": rep.orthogonality_restored,
    }


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

    report.grid_info = {
        "h": grid.h,
        "n_points": grid.n_points,
        "boundary": grid.boundary,
        "matrix_dim": 2 * (grid.n_points - 2 if grid.boundary == "dirichlet"
                           else grid.n_points),
        "scheme": scheme,
        "wilson_r": wilson_r,
    }

    # PT symmetry of each channel (informational; gating below)
    declared_pt = cfg.pt_channels()
    if grid.is_symmetric():
        sampled = [(c, getattr(potential, c)) for c in CHANNELS] + [("mass", mass)]
        for name, f in sampled:
            pt = check_pt_symmetry(f, tol=pt_tol)
            report.pt_rows.append({
                "channel": name,
                "declared_pt": name in declared_pt,
                "residual": pt.residual,
                "symmetric": pt.symmetric,
                "tol": pt.tol,
            })
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
            bad = [r for r in report.pt_rows
                   if r["declared_pt"] and not r["symmetric"]]
            if bad:
                detail = "; ".join(
                    f"{r['channel']} residual {r['residual']:.3e} > {r['tol']:g}"
                    for r in bad)
                report.checks.append(CheckOutcome("pt_symmetry", False, detail))
            else:
                worst = max(r["residual"] for r in report.pt_rows
                            if r["declared_pt"])
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

    op = assemble_hamiltonian(grid, potential, mass, scheme=scheme,
                              wilson_r=wilson_r)
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

    near_wall = (1, grid.n_points - 2) if grid.boundary == "dirichlet" else None
    for i, s in enumerate(result.eigenpairs):
        row = {
            "index": i,
            "energy_re": s.energy.real,
            "energy_im": s.energy.imag,
            "residual": float(result.residuals[i]),
            "classification": result.classification[i],
        }
        if mode == "diagnose":
            if near_wall:
                amp = max(abs(s.plus_component[j]) + abs(s.minus_component[j])
                          for j in near_wall)
            else:
                amp = 0.0
            row["tail_amplitude"] = amp
            r = continuity_residual(s, potential)
            row["continuity_max"] = float(np.max(np.abs(r.values)))
        report.spectrum_rows.append(row)

    if mode == "diagnose":
        report.gram = gram_matrix(result)

        d = cfg["diagnostics"]
        window = None
        if d["window"] is not None:
            window = (_node_index(grid, d["window"][0]),
                      _node_index(grid, d["window"][1]))
        identity_tol = None if d["identity_tol"] == "auto" else d["identity_tol"]
        pairs = list(d["balance_pairs"])
        if not pairs:
            low = min(d["balance_lowest"], len(result.energies))
            pairs = [(k, kp) for k in range(low) for kp in range(k)]
        reports, failures = orthogonality_balance(
            result, pairs, window=window, identity_tol=identity_tol)
        report.checks.extend(
            CheckOutcome("balance_identity", False, f"pair ({k},{kp}): {why}")
            for k, kp, why in failures)
        report.balance_rows = [_balance_row(r) for r in reports]
        if reports:
            bad = [r for r in reports if not r.identity_ok]
            report.checks.append(CheckOutcome(
                "balance_identity", not bad,
                f"{len(reports)} pair(s), worst residual "
                f"{max(r.identity_residual for r in reports):.3e}"
                if not bad else
                f"{len(bad)} pair(s) exceed tolerance, worst "
                f"{max(r.identity_residual for r in bad):.3e}"))

        # current conservation is only an exit-relevant check for Hermitian
        # potentials; PT runs legitimately violate it and just report values
        if report.hermiticity["gamma0_potential"] <= 1e-14:
            scale = 100.0 * grid.h ** 2
            worst = max((row["continuity_max"] for row in report.spectrum_rows),
                        default=0.0)
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
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f17(v)
    cell = str(v)
    if _CSV_QUOTE.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


# (table key, CSV file name) in writing order; report.json holds the same
# row lists under the table keys
_TABLES = (("spectrum", "spectrum.csv"), ("gram", "gram.csv"),
           ("balance", "balance.csv"), ("pt", "pt_check.csv"))


def write_outputs(report: RunReport, out_dir: Path, formats: str) -> list[Path]:
    """Write spectrum/gram/balance/pt CSVs and/or report.json; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {"spectrum": report.spectrum_rows, "balance": report.balance_rows,
              "pt": report.pt_rows}
    if report.gram is not None:
        g = report.gram
        tables["gram"] = [{"k_prime": i, "k": j,
                           "re": g[i, j].real, "im": g[i, j].imag}
                          for i in range(g.shape[0]) for j in range(g.shape[1])]
    written: list[Path] = []

    if formats in ("csv", "both"):
        for key, name in _TABLES:
            rows = tables.get(key)
            if rows:
                cols = list(rows[0])
                p = out_dir / name
                _write_csv(p, cols, [[row[c] for c in cols] for row in rows])
                written.append(p)

    if formats in ("json", "both"):
        doc = {"mode": report.mode, "config": report.config,
               "grid": report.grid_info, "hermiticity": report.hermiticity,
               "checks": [asdict(c) for c in report.checks],
               "notes": report.notes, "passed": report.passed, **tables}
        p = out_dir / "report.json"
        p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        written.append(p)
    return written
