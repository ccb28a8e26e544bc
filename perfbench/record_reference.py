"""Record the reference energies the benchmark's correctness gate compares to.

    python3 perfbench/record_reference.py      # rewrites perfbench/reference.json

Run from the root of a source checkout.  It records, with BLAS pinned to one
thread, the `dirac1d diagnose` energies of each diagnose workload at the
default seed and the shooter's continuum levels of the shoot workload's
operator at both sizes.  Re-record only when a change is meant to alter
these numbers, and say so with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# lattice eigenvalues of the alpha=0.1 n=800 operator, as starting guesses
LATTICE_GUESSES = {"ground": 1.21872255162, "ground_partner": -1.21872255162,
                   "second": 2.4785}


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import dirac1d
    from dirac1d import cli, config, lorentz, solver

    import verify
    import workloads

    out: dict = {"dirac1d_version": dirac1d.__version__}
    work_dir = ROOT / ".bench_build" / "perfbench" / "record"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for tiny in (False, True):
            size = "tiny" if tiny else "full"
            ini = work_dir / f"shoot_{size}.ini"
            ini.write_text(workloads.pt_ini(0.1, 100 if tiny else 800))
            cfg = config.parse_config(ini)
            grid = cfg.build_grid()
            profile = cfg.build_mass_profile()
            pot = cfg.build_potential(grid, profile)
            mass = lorentz.sample_mass(profile, grid)
            out[f"shoot_levels/{size}"] = {
                level: [e.real, e.imag] for level, e in (
                    (level, solver.shooting_solve(grid, pot, mass, guess).energy)
                    for level, guess in LATTICE_GUESSES.items())}

        for name in ("many_states_diagnose",):
            work = workloads.make(name, workloads.DEFAULT_SEED)
            ini = work_dir / f"{name}.ini"
            ini.write_text(work.ini)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["diagnose", str(ini), "--out", str(work_dir / name),
                               *work.cli_args])
            if rc != 0:
                print(f"{name}: dirac1d diagnose exited {rc}", file=sys.stderr)
                return 1
            energies, _ = verify.read_spectrum(work_dir / name)
            out[work.reference_key] = {"seed": work.seed,
                                       "energies": [[e.real, e.imag] for e in energies]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    verify.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {verify.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
