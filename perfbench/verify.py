"""Correctness gates for the benchmark's operations.

A CLI operation passes when `dirac1d diagnose` exited 0, wrote the expected
number of spectrum rows and balance pairs, and every reported energy is a
genuine eigenvalue: an eigenvector found for it by sparse inverse iteration
on the configured operator passes the matrix-free reduced-equation oracle
`hamiltonian.reduced_residual_norm` at the configured tolerance.  At the
seed the reference was recorded for (the default seed) the energies must
also match it as a multiset.  A shooting operation passes when its energy
is within SHOOT_TOL of the recorded continuum level.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from dirac1d import config, hamiltonian, lorentz
from dirac1d.grid import GridFunction

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_TOL = 1e-9
SHOOT_TOL = 1e-8


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def read_spectrum(out_dir: Path) -> tuple[np.ndarray, np.ndarray]:
    """Energies and solver residuals from a diagnose run's spectrum.csv."""
    with open(Path(out_dir) / "spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    energies = np.array([complex(float(r["energy_re"]), float(r["energy_im"]))
                         for r in rows])
    return energies, np.array([float(r["residual"]) for r in rows])


def multiset_mismatch(energies, reference, tol: float = REFERENCE_TOL):
    """None when the two energy lists agree as multisets within tol, else
    a reason.  Order is ignored so that a canonical reordering of equal
    spectra is not a failure."""
    if len(energies) != len(reference):
        return f"{len(energies)} energies, reference has {len(reference)}"
    unused = list(reference)
    for e in energies:
        gaps = [abs(e - r) for r in unused]
        j = int(np.argmin(gaps))
        if gaps[j] > tol:
            return f"energy {e:.12g} has no reference within {tol:g}"
        unused.pop(j)
    return None


class CliGate:
    """Checks the outputs of `dirac1d diagnose` runs of one workload."""

    def __init__(self, work, ini_path: str, reference: dict | None):
        cfg = config.parse_config(ini_path)
        grid = cfg.build_grid()
        profile = cfg.build_mass_profile()
        self.mass = lorentz.sample_mass(profile, grid)
        self.potential = cfg.build_potential(grid, profile)
        op = hamiltonian.assemble_hamiltonian(
            grid, self.potential, self.mass, scheme=cfg["solver"]["scheme"],
            wilson_r=cfg["solver"]["wilson_r"])
        self.op = op
        self.matrix = sparse.csc_matrix(op.matrix)
        self.tol = cfg["solver"]["tol"]
        self.work = work
        self.reference = reference

    def oracle_residual(self, energy: complex) -> float:
        """Reduced-equation residual of the eigenvector nearest `energy`."""
        op = self.op
        size = op.size
        shift = energy + 1e-10 * max(1.0, abs(energy))
        lu = splu((self.matrix - shift * sparse.identity(size, format="csc")).tocsc())
        v = np.random.default_rng(0).standard_normal(size) + 0j
        for _ in range(2):
            v = lu.solve(v)
            v /= np.linalg.norm(v)
        half = size // 2
        plus = np.zeros(op.grid.n_points, dtype=complex)
        minus = np.zeros(op.grid.n_points, dtype=complex)
        plus[op.active_index] = v[:half]
        minus[op.active_index] = v[half:]
        return hamiltonian.reduced_residual_norm(
            energy, GridFunction(op.grid, plus), GridFunction(op.grid, minus),
            self.potential, self.mass, scheme=op.scheme, wilson_r=op.wilson_r)

    def check(self, rec: dict):
        """None when the operation's outputs are correct, else a reason."""
        if rec.get("rc") != 0:
            return f"exit code {rec.get('rc')}: {rec.get('error', '')}".strip()
        out = Path(rec["out"])
        energies, residuals = read_spectrum(out)
        work = self.work
        if len(energies) != work.max_pairs:
            return f"{len(energies)} spectrum rows, expected {work.max_pairs}"
        with open(out / "balance.csv") as fh:
            n_balance = sum(1 for _ in fh) - 1
        if n_balance != work.balance_pairs:
            return f"{n_balance} balance rows, expected {work.balance_pairs}"
        if np.any(residuals > self.tol):
            return f"reported residual {residuals.max():.3e} > {self.tol:g}"
        for e in energies:
            res = self.oracle_residual(e)
            if not res <= self.tol:
                return f"E={e:.12g} fails the reduced-equation oracle ({res:.3e})"
        if self.reference is not None:
            ref = [complex(*pair) for pair in self.reference["energies"]]
            return multiset_mismatch(energies, ref)
        return None


class ShootGate:
    def __init__(self, levels: dict):
        self.levels = {k: complex(*v) for k, v in levels.items()}

    def check(self, rec: dict):
        if rec.get("rc") != 0:
            return f"shooting failed: {rec.get('error', '')}".strip()
        energy = complex(*rec["energy"])
        gap = abs(energy - self.levels[rec["level"]])
        if not gap <= SHOOT_TOL:
            return f"{rec['level']}: E={energy:.12g} is {gap:.3e} from its reference"
        return None


def gate_for(work, ini_path: str, reference: dict):
    """The gate of a workload, with the recorded reference where it applies."""
    entry = reference.get(work.reference_key)
    if work.kind == "shoot":
        return ShootGate(entry)
    use_ref = entry is not None and entry["seed"] == work.seed
    return CliGate(work, ini_path, entry if use_ref else None)
