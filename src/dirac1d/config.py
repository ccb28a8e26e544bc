"""INI run configuration: strict parsing, defaults, and object construction.

Unknown sections or keys are hard errors (with a nearest-match suggestion),
missing required keys are reported exhaustively in one message, and every
default is materialized into the parsed result so reports can echo the full
effective configuration.  See docs/config.md for the file format.
"""

from __future__ import annotations

import configparser
import difflib
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError
from .grid import BOUNDARIES, Grid1D, GridFunction
from .hamiltonian import OPERATOR_SCHEMES
from .lorentz import (MASS_FAMILIES, LorentzPotential, MassProfile,
                      pt_vector_potential, sample_mass)

CHANNELS = ("v_t", "v_sp", "v_s", "v_p")
FORMATS = ("csv", "json", "both")

# key -> (type tag, default-as-string or None when required)
_SCHEMA: dict[str, dict[str, tuple[str, Optional[str]]]] = {
    "grid": {
        "x_min": ("float", None),
        "x_max": ("float", None),
        "n_points": ("int", None),
        "boundary": ("choice:" + "|".join(BOUNDARIES), "dirichlet"),
    },
    "mass": {
        "family": ("choice:" + "|".join(MASS_FAMILIES), None),
        "m0": ("float", "1.0"),
        "lam": ("float", "0.0"),
        "alpha": ("float", "0.0"),
        "a": ("float", "0.0"),
    },
    "potential": {name: ("channel", "zero") for name in CHANNELS},
    "solver": {
        "scheme": ("choice:" + "|".join(OPERATOR_SCHEMES), "central_wilson"),
        "wilson_r": ("float", "1.0"),
        "tol": ("float", "1e-9"),
        "max_pairs": ("int", "12"),
    },
    "diagnostics": {
        "pt_tol": ("float", "1e-12"),
        "reality_tol": ("float", "1e-9"),
        "identity_tol": ("float_or_auto", "auto"),
        "balance_lowest": ("int", "6"),
        "balance_pairs": ("pairs", ""),
        "window": ("window", ""),
    },
    "output": {
        "directory": ("str", ""),
        "formats": ("choice:" + "|".join(FORMATS), "csv"),
    },
}

_REQUIRED = [(sec, key) for sec, keys in _SCHEMA.items()
             for key, (_, default) in keys.items() if default is None]


def _suggest(name: str, candidates: list[str]) -> str:
    close = difflib.get_close_matches(name, candidates, n=1, cutoff=0.5)
    if close:
        return f"; did you mean {close[0]!r}?"
    return f"; valid: {', '.join(sorted(candidates))}"


def _parse_value(section: str, key: str, kind: str, raw: str):
    where = f"{section}.{key}"
    if kind == "float_or_auto" and raw.strip() == "auto":
        return "auto"
    try:
        if kind in ("float", "float_or_auto"):
            value = float(raw)
        elif kind == "int":
            return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from None
    if kind in ("float", "float_or_auto"):
        if not math.isfinite(value):
            raise ConfigError(f"{where}: {raw!r} is not a finite number")
        return value
    if kind.startswith("choice:"):
        allowed = kind.split(":", 1)[1].split("|")
        if raw not in allowed:
            raise ConfigError(
                f"{where}: invalid value {raw!r}{_suggest(raw, allowed)}"
            )
        return raw
    if kind == "pairs":
        pairs = []
        for item in filter(None, (s.strip() for s in raw.split(","))):
            try:
                a, b = item.split(":")
                pairs.append((int(a), int(b)))
            except ValueError:
                raise ConfigError(
                    f"{where}: malformed pair {item!r}; expected 'k:k_prime'"
                ) from None
        return tuple(pairs)
    if kind == "window":
        if not raw.strip():
            return None
        try:
            a, b = raw.split(":")
            lo, hi = float(a), float(b)
        except ValueError:
            raise ConfigError(
                f"{where}: malformed window {raw!r}; expected 'x_lo:x_hi'"
            ) from None
        if not lo < hi:
            raise ConfigError(f"{where}: window needs x_lo < x_hi, got {raw!r}")
        return (lo, hi)
    if kind in ("str", "channel"):
        return raw
    raise ConfigError(f"internal: unhandled schema kind {kind!r}")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration with all defaults applied.

    values holds parsed entries; raw holds the corresponding strings
    (defaults included) so a config can be rebuilt with one key replaced.
    """

    path: Optional[Path]
    values: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def replace(self, overrides: dict[str, str]) -> "RunConfig":
        """This configuration with {"section.key": raw value} entries replaced.

        The result is validated from scratch like a config file, so an
        override is checked exactly like the key it sets.
        """
        raw = {sec: dict(keys) for sec, keys in self.raw.items()}
        for name, value in overrides.items():
            section, _, key = name.partition(".")
            raw.setdefault(section, {})[key] = value
        return config_from_raw(raw, path=self.path)

    def build_grid(self) -> Grid1D:
        g = self.values["grid"]
        return Grid1D(g["x_min"], g["x_max"], g["n_points"], g["boundary"])

    def build_mass_profile(self) -> MassProfile:
        m = self.values["mass"]
        return MassProfile(family=m["family"], m0=m["m0"], lam=m["lam"],
                           alpha=m["alpha"], a=m["a"])

    def build_potential(self, grid: Grid1D, profile: MassProfile) -> LorentzPotential:
        base = self.path.parent if self.path else Path.cwd()
        chans = {
            name: _build_channel(self.values["potential"][name], name, grid,
                                 profile, base)
            for name in CHANNELS
        }
        return LorentzPotential(**chans)

    def pt_channels(self) -> list[str]:
        """Channels configured as pt_from_mass (candidates for strict PT checks)."""
        return [name for name in CHANNELS
                if self.values["potential"][name].startswith("pt_from_mass")]


def _parse_complex(raw: str, where: str) -> complex:
    try:
        return complex(raw.strip().replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as a number") from None


# a value that overflows on the grid fails the finiteness check at the end
@np.errstate(over="ignore", invalid="ignore")
def _build_channel(spec: str, name: str, grid: Grid1D, profile: MassProfile,
                   base: Path) -> GridFunction:
    where = f"potential.{name}"
    kind, _, arg = spec.partition(":")
    kind = kind.strip()
    arg = arg.strip()
    x = grid.nodes
    if kind == "zero":
        return GridFunction.constant(grid, 0.0)
    if kind == "pt_from_mass":
        if name != "v_t":
            raise ConfigError(
                f"{where}: pt_from_mass builds the mass-induced vector "
                "potential and only applies to the v_t channel"
            )
        return pt_vector_potential(profile, grid)
    if kind == "constant":
        vals = np.full(grid.n_points, _parse_complex(arg, where))
    elif kind == "linear":
        vals = _parse_complex(arg, where) * x
    elif kind == "quadratic":
        vals = _parse_complex(arg, where) * x * x
    elif kind == "abs":
        vals = _parse_complex(arg, where) * np.abs(x)
    elif kind == "file":
        path = (base / arg).resolve() if not Path(arg).is_absolute() else Path(arg)
        if not path.exists():
            raise ConfigError(f"{where}: tabulated file {str(path)!r} not found")
        try:
            with warnings.catch_warnings():  # an empty table fails the shape check
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(path, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{where}: cannot read file {path.name}: {exc}") from None
        if data.shape[0] != grid.n_points or data.shape[1] not in (1, 2):
            raise ConfigError(
                f"{where}: file {path.name} has shape {data.shape}, expected "
                f"({grid.n_points}, 1) or ({grid.n_points}, 2) for this grid"
            )
        vals = data[:, 0] + (1.0j * data[:, 1] if data.shape[1] == 2 else 0.0)
    else:
        raise ConfigError(
            f"{where}: unknown channel spec {spec!r}; expected zero, pt_from_mass, "
            "constant:<c>, linear:<c>, quadratic:<c>, abs:<c> or file:<path>"
        )
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{where}: {spec!r} is not finite at every grid node")
    return GridFunction(grid, vals)


def _validate_semantics(cfg: RunConfig) -> None:
    """Build every object once so malformed configs fail at parse time."""
    grid = cfg.build_grid()
    profile = cfg.build_mass_profile()
    sample_mass(profile, grid)
    cfg.build_potential(grid, profile)
    d = cfg.values["diagnostics"]
    if d["window"] is not None:
        lo, hi = d["window"]
        if lo < grid.x_min or hi > grid.x_max:
            raise ConfigError(
                f"diagnostics.window [{lo}, {hi}] exceeds the domain "
                f"[{grid.x_min}, {grid.x_max}]"
            )
        node = grid.nearest_node(lo)
        if grid.nearest_node(hi) == node:
            raise ConfigError(
                f"diagnostics.window [{lo}, {hi}] collapses onto node {node} "
                f"(x = {grid.nodes[node]:g}); both ends have it as their "
                "nearest node, and the balance window needs two"
            )
    if cfg.values["solver"]["tol"] <= 0:
        raise ConfigError("solver.tol must be positive")
    if cfg.values["solver"]["max_pairs"] < 1:
        raise ConfigError("solver.max_pairs must be at least 1")
    if cfg.values["solver"]["wilson_r"] < 0:
        raise ConfigError("solver.wilson_r must be non-negative")
    for key in ("pt_tol", "reality_tol", "identity_tol", "balance_lowest"):
        if d[key] != "auto" and d[key] < 0:
            raise ConfigError(f"diagnostics.{key} must be non-negative")


def config_from_raw(raw: dict[str, dict[str, str]],
                    path: Optional[Path] = None) -> RunConfig:
    """Validate a {section: {key: string}} mapping against the schema."""
    for sec in raw:
        if sec not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{sec}]{_suggest(sec, list(_SCHEMA))}"
            )
        for key in raw[sec]:
            if key not in _SCHEMA[sec]:
                raise ConfigError(
                    f"unknown key {key!r} in [{sec}]"
                    f"{_suggest(key, list(_SCHEMA[sec]))}"
                )
    missing = [f"{sec}.{key}" for sec, key in _REQUIRED
               if key not in raw.get(sec, {})]
    if missing:
        raise ConfigError("missing required key(s): " + ", ".join(missing))

    values: dict[str, dict] = {}
    raw_effective: dict[str, dict] = {}
    for sec, keys in _SCHEMA.items():
        values[sec] = {}
        raw_effective[sec] = {}
        for key, (kind, default) in keys.items():
            raw_val = raw.get(sec, {}).get(key, default)
            values[sec][key] = _parse_value(sec, key, kind, raw_val)
            raw_effective[sec][key] = raw_val
    cfg = RunConfig(path=path, values=values, raw=raw_effective)
    _validate_semantics(cfg)
    return cfg


def parse_config(path) -> RunConfig:
    """Read, validate and default-fill an INI run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {str(path)!r} not found")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path.name}: {exc}") from None
    raw = {sec: dict(parser.items(sec)) for sec in parser.sections()}
    return config_from_raw(raw, path=path)
