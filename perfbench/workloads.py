"""Seeded workload definitions.

A workload is generated from a seed and handed to the program only as an
INI file plus CLI arguments (diagnose workloads) or as shooting guesses on
the operator that INI describes (shoot workload).  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
NAMES = ("many_states_diagnose", "shoot_levels")

# Continuum levels of the alpha=0.1 PT operator, recorded by
# record_reference.py at both sizes; the shoot workload perturbs them into
# guesses.
SHOOT_LEVELS = ("ground", "ground_partner", "second")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    tiny: bool
    ini: str
    cli_args: tuple = ()
    # diagnose workloads: what the written outputs must contain
    max_pairs: int = 0
    balance_pairs: int = 0
    # shoot workload: (level name, guess) per solve, in round order
    guesses: tuple = ()
    # the host-speed probe that matches where the operations spend their
    # time (see worker.Probe): "numpy" or "python"
    probe: str = "python"

    @property
    def kind(self) -> str:
        return "shoot" if self.guesses else "cli"

    @property
    def reference_key(self) -> str:
        return f"{self.name}/{'tiny' if self.tiny else 'full'}"


def _ini(n_points: int, x_max: float, mass: dict, potential: dict,
         solver: dict | None = None, diagnostics: dict | None = None) -> str:
    sections = {
        "grid": {"x_min": -x_max, "x_max": x_max, "n_points": n_points},
        "mass": mass,
        "potential": potential,
        "solver": solver or {},
        "diagnostics": diagnostics or {},
    }
    lines = []
    for name, keys in sections.items():
        if keys:
            lines.append(f"[{name}]")
            lines.extend(f"{k} = {v}" for k, v in keys.items())
            lines.append("")
    return "\n".join(lines)


def pt_ini(alpha: float, n_points: int) -> str:
    """The README example: quadratic_even mass with its induced PT v_t."""
    return _ini(n_points, 10.0,
                {"family": "quadratic_even", "m0": 1.0, "alpha": repr(alpha)},
                {"v_t": "pt_from_mass"})


def make(name: str, seed: int, tiny: bool = False,
         shoot_reference: dict | None = None) -> Workload:
    """Build workload `name` from `seed`; `tiny` shrinks it for the self-test.

    The shoot workload needs the recorded continuum levels, passed in as
    shoot_reference {level name: [re, im]}.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "many_states_diagnose":
        slope = 0.5 + rng.random()
        pairs = 20 if tiny else 100
        ini = _ini(60 if tiny else 200, 12.0, {"family": "constant", "m0": 1.0},
                   {"v_s": f"abs:{slope!r}"}, {"max_pairs": pairs},
                   {"balance_lowest": pairs})
        return Workload(name, seed, tiny, ini, ("--format", "both"),
                        max_pairs=pairs, balance_pairs=pairs * (pairs - 1) // 2,
                        probe="numpy")
    if name == "shoot_levels":
        if shoot_reference is None:
            raise ValueError("shoot_levels needs the recorded reference levels")
        levels = {k: complex(*shoot_reference[k]) for k in SHOOT_LEVELS}
        spacing = abs(levels["second"] - levels["ground"])
        guesses = []
        for level in SHOOT_LEVELS:
            # offset magnitude in [0.5%, 1%) of the level spacing: always
            # off the root, never near the neighbouring level
            offset = rng.choice((-1.0, 1.0)) * (0.005 + 0.005 * rng.random()) * spacing
            guesses.append((level, levels[level].real + offset))
        return Workload(name, seed, tiny, pt_ini(0.1, 100 if tiny else 800),
                        guesses=tuple(guesses))
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")

