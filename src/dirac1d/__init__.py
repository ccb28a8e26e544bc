"""1+1D Dirac bound states with position-dependent mass and general
Lorentz-structure potentials, including PT-symmetric imaginary vector
couplings generated by the mass profile itself."""

from .config import RunConfig, config_from_raw, parse_config
from .diagnostics import (BalanceTable, continuity_residual, gram_matrix,
                          normalize_result, orthogonality_balance)
from .errors import (ConfigError, ConvergenceError, Dirac1DError, GridError,
                     MassError)
from .grid import Grid1D, GridFunction
from .hamiltonian import (DiracOperator, assemble_hamiltonian,
                          hermiticity_of_operator, reduced_equations_rhs,
                          reduced_residual_norm)
from .lorentz import (GAMMA0, GAMMA1, GAMMA5, LorentzPotential, MassProfile,
                      check_pt_symmetry, gamma0_hermiticity_residual,
                      local_blocks, pt_vector_potential, sample_mass)
from .report import RunReport, execute, write_outputs
from .solver import (ShootingResult, SpectrumResult, shooting_solve,
                     solve_spectrum)

__version__ = "0.1.0"

__all__ = [
    "BalanceTable", "ConfigError", "ConvergenceError", "Dirac1DError",
    "DiracOperator", "GAMMA0", "GAMMA1", "GAMMA5", "Grid1D", "GridError",
    "GridFunction", "LorentzPotential", "MassError", "MassProfile",
    "RunConfig", "RunReport", "ShootingResult", "SpectrumResult",
    "assemble_hamiltonian", "check_pt_symmetry", "config_from_raw",
    "continuity_residual", "execute", "gamma0_hermiticity_residual",
    "gram_matrix", "hermiticity_of_operator", "local_blocks",
    "normalize_result", "orthogonality_balance", "parse_config",
    "pt_vector_potential", "reduced_equations_rhs", "reduced_residual_norm",
    "sample_mass", "shooting_solve", "solve_spectrum", "write_outputs",
]
