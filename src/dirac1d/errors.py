"""Exception types shared across the package."""


class Dirac1DError(Exception):
    """Base class for everything this package raises on purpose."""


class GridError(Dirac1DError, ValueError):
    """Bad grid parameters or a grid that does not fit the requested operation."""


class MassError(Dirac1DError, ValueError):
    """Mass profile invalid on the given grid (zero, wrong sign, or pole too close)."""


class ConvergenceError(Dirac1DError, RuntimeError):
    """An iterative or direct solve failed to reach the requested tolerance."""


class ConfigError(Dirac1DError, ValueError):
    """Malformed or inconsistent run configuration."""
