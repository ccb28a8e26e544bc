"""Session-scoped solves shared across the test modules.

The dense eigensolves at n=800 dominate the suite's runtime, so each
configuration is solved once and reused; the fixtures also record wall-clock
time for the runtime assertions.
"""

import time
from typing import NamedTuple

import numpy as np
import pytest

from dirac1d import (DiracOperator, GridFunction, LorentzPotential,
                     MassProfile, SpectrumResult, assemble_hamiltonian,
                     build_grid, pt_vector_potential, sample_mass,
                     solve_spectrum, solver)


@pytest.fixture(autouse=True)
def empty_shooter_memo(monkeypatch):
    """Every test starts with no kept shooter build, so no result or build
    count depends on which test ran before it."""
    monkeypatch.setattr(solver, "_last_build", (None, ()))


class SolveCase(NamedTuple):
    op: DiracOperator
    result: SpectrumResult
    elapsed: float


def _timed_solve(op: DiracOperator, **kwargs) -> SolveCase:
    t0 = time.perf_counter()
    result = solve_spectrum(op, **kwargs)
    return SolveCase(op, result, time.perf_counter() - t0)


def free_operator(n_points: int, wilson_r: float) -> DiracOperator:
    grid = build_grid(-np.pi, np.pi, n_points, boundary="periodic")
    mass = sample_mass(MassProfile("constant", m0=1.0), grid)
    return assemble_hamiltonian(grid, LorentzPotential.zero(grid), mass,
                                scheme="central_wilson", wilson_r=wilson_r)


@pytest.fixture(scope="session")
def free_cases():
    """Free particle on periodic [-pi, pi), full spectrum retained."""
    return {(n, r): _timed_solve(free_operator(n, r), max_pairs=2 * n)
            for n in (128, 256) for r in (1.0, 0.0)}


def pt_operator(n_points: int) -> DiracOperator:
    grid = build_grid(-10.0, 10.0, n_points, boundary="dirichlet")
    profile = MassProfile("quadratic_even", m0=1.0, alpha=0.1)
    mass = sample_mass(profile, grid)
    pot = LorentzPotential.from_channels(
        grid, v_t=pt_vector_potential(profile, grid))
    return assemble_hamiltonian(grid, pot, mass,
                                scheme="central_wilson", wilson_r=1.0)


@pytest.fixture(scope="session")
def pt_cases():
    """Quadratic-even mass plus the imaginary vector potential it induces.

    The four grids form the h -> 0 ladder that criterion 5 extrapolates.
    """
    return {n: _timed_solve(pt_operator(n)) for n in (100, 200, 400, 800)}


def absolute_scalar_operator(n_points: int) -> DiracOperator:
    grid = build_grid(-12.0, 12.0, n_points, boundary="dirichlet")
    mass = sample_mass(MassProfile("constant", m0=1.0), grid)
    pot = LorentzPotential.from_channels(
        grid, v_s=GridFunction(grid, np.abs(grid.nodes)))
    return assemble_hamiltonian(grid, pot, mass,
                                scheme="central_wilson", wilson_r=1.0)


@pytest.fixture(scope="session")
def scalar_cases():
    """Hermitian reference problem: real V_s = |x| between hard walls."""
    return {n: _timed_solve(absolute_scalar_operator(n))
            for n in (200, 400, 800)}
